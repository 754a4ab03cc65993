//! Disjoint-set forest (union by size + path halving), used for connected
//! components (LCC and N-Component statistics of Table III). Sets only
//! ever merge, so the component count and the largest set size are kept
//! as running values: both are O(1) reads after any number of unions.

/// Union-find over `0..n`.
pub struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
    n_components: usize,
    largest: u32,
}

impl UnionFind {
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
            n_components: n,
            largest: (n > 0) as u32,
        }
    }

    /// Representative of `x`'s set.
    pub fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            // path halving
            let gp = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = gp;
            x = gp;
        }
        x
    }

    /// Merge the sets of `a` and `b`; returns true if they were distinct.
    pub fn union(&mut self, a: u32, b: u32) -> bool {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        if self.size[ra as usize] < self.size[rb as usize] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb as usize] = ra;
        self.size[ra as usize] += self.size[rb as usize];
        self.largest = self.largest.max(self.size[ra as usize]);
        self.n_components -= 1;
        true
    }

    /// Number of disjoint sets (isolated nodes count as singletons).
    pub fn n_components(&self) -> usize {
        self.n_components
    }

    /// Size of the largest set (0 when there are no elements).
    pub fn largest_component(&self) -> usize {
        self.largest as usize
    }

    /// Size of the set containing `x`.
    pub fn component_size(&mut self, x: u32) -> usize {
        let r = self.find(x);
        self.size[r as usize] as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_sets_are_singletons() {
        let mut uf = UnionFind::new(5);
        assert_eq!(uf.n_components(), 5);
        assert_eq!(uf.largest_component(), 1);
        for i in 0..5 {
            assert_eq!(uf.find(i), i);
        }
    }

    #[test]
    fn unions_merge_and_count() {
        let mut uf = UnionFind::new(6);
        assert!(uf.union(0, 1));
        assert!(uf.union(2, 3));
        assert!(!uf.union(1, 0)); // already merged
        assert_eq!(uf.n_components(), 4);
        assert!(uf.union(0, 2));
        assert_eq!(uf.n_components(), 3);
        assert_eq!(uf.largest_component(), 4);
        assert_eq!(uf.component_size(3), 4);
        assert_eq!(uf.component_size(4), 1);
    }

    #[test]
    fn chain_union_all() {
        let n = 100;
        let mut uf = UnionFind::new(n);
        for i in 0..n as u32 - 1 {
            uf.union(i, i + 1);
        }
        assert_eq!(uf.n_components(), 1);
        assert_eq!(uf.largest_component(), n);
    }

    #[test]
    fn running_largest_matches_a_scan() {
        // pseudo-random unions; after each, the running value must equal
        // the largest `component_size` over all elements
        let n = 64u32;
        let mut uf = UnionFind::new(n as usize);
        let mut x = 12345u32;
        for _ in 0..200 {
            x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            let (a, b) = ((x >> 8) % n, (x >> 20) % n);
            uf.union(a, b);
            let scanned = (0..n).map(|v| uf.component_size(v)).max().unwrap();
            assert_eq!(uf.largest_component(), scanned);
        }
    }

    #[test]
    fn empty() {
        let uf = UnionFind::new(0);
        assert_eq!(uf.n_components(), 0);
        assert_eq!(uf.largest_component(), 0);
    }
}
