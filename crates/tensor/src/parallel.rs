//! Chunked CPU parallelism on a **persistent worker pool**.
//!
//! The seed implementation spawned and joined fresh OS threads through
//! `crossbeam::scope` on every kernel call, which put a thread create +
//! destroy on every large matmul — tens of microseconds of overhead paid
//! thousands of times per training run. This module replaces that with a
//! lazily-initialised, process-wide pool:
//!
//! - **One queue, N workers.** Workers are spawned once (at first parallel
//!   call), sized to `available_parallelism() - 1`, and park on a condvar
//!   between calls. Tasks are type-erased `FnOnce` boxes on a shared FIFO.
//! - **Caller helps.** The thread that submits a batch of tasks does not
//!   block idle: it pops tasks from the same queue until the batch's latch
//!   reaches zero. This both saves a context switch for the common case
//!   and makes *nested* parallel sections deadlock-free — a worker that
//!   submits a sub-batch keeps executing queued tasks while it waits.
//! - **Scoped borrows.** [`par_chunks_mut`]/[`par_map`] accept closures
//!   borrowing stack data. Internally the closure lifetime is erased to
//!   `'static`; soundness comes from the submit call blocking until every
//!   task of its batch has completed (panics included — completion is
//!   signalled from a drop guard), so borrows outlive all task runs.
//! - **Thread-count override.** [`set_num_threads`] pins the *split
//!   factor* (how many chunks a kernel fans out into); the pool itself
//!   keeps its size. `set_num_threads(1)` therefore gives bit-exact serial
//!   execution on the calling thread. Tests use the [`ThreadPin`] RAII
//!   guard, which also serialises against other threads touching the
//!   override (the process-global is otherwise racy across tests).
//!
//! Worker panics are caught, forwarded to the submitting thread, and
//! re-raised there as `"parallel worker panicked"` — same contract as the
//! old scoped implementation.
//!
//! Because workers are **persistent**, `thread_local!` state observed by
//! tasks survives across batches: the generation path records every unit
//! on its worker's tape ([`crate::tape::Tape::with_thread_local`]), which
//! keeps only its node list between units. Anything correctness-critical
//! must *not* depend on thread-local state, since task→worker assignment
//! is scheduling-dependent.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};

/// Work sizes below this many fused multiply-adds stay single-threaded;
/// queue hand-off overhead dominates under it.
pub const PAR_THRESHOLD: usize = 1 << 18;

static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Number of chunks parallel kernels split into.
///
/// Defaults to the machine's available parallelism; can be pinned (e.g. to 1
/// for deterministic benchmarking of the paper's "one CPU core" setting) via
/// [`set_num_threads`] or, preferably, a scoped [`ThreadPin`].
pub fn num_threads() -> usize {
    let o = THREAD_OVERRIDE.load(Ordering::Relaxed);
    if o > 0 {
        return o;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Pin the split factor (0 restores the default).
///
/// This is a process-wide setting; concurrent callers race. Prefer
/// [`ThreadPin`] where the pin should be temporary (tests, benchmarks).
pub fn set_num_threads(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::Relaxed);
}

static PIN_LOCK: Mutex<()> = Mutex::new(());

/// RAII pin of the thread count: holds a process-global lock so concurrent
/// pins (e.g. parallel tests) serialise instead of clobbering each other,
/// and restores the previous value on drop.
pub struct ThreadPin {
    prev: usize,
    _lock: std::sync::MutexGuard<'static, ()>,
}

impl ThreadPin {
    /// Pin the split factor to `n` until the guard drops (0 = default).
    pub fn new(n: usize) -> Self {
        let lock = PIN_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        let prev = THREAD_OVERRIDE.swap(n, Ordering::Relaxed);
        ThreadPin { prev, _lock: lock }
    }
}

impl Drop for ThreadPin {
    fn drop(&mut self) {
        THREAD_OVERRIDE.store(self.prev, Ordering::Relaxed);
    }
}

type Job = Box<dyn FnOnce() + Send + 'static>;

struct PoolState {
    queue: VecDeque<Job>,
}

struct Pool {
    state: Mutex<PoolState>,
    work_ready: Condvar,
}

impl Pool {
    fn push_jobs(&self, jobs: impl IntoIterator<Item = Job>) {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let mut n = 0usize;
        for j in jobs {
            st.queue.push_back(j);
            n += 1;
        }
        drop(st);
        if n == 1 {
            self.work_ready.notify_one();
        } else if n > 1 {
            self.work_ready.notify_all();
        }
    }

    fn try_pop(&self) -> Option<Job> {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .queue
            .pop_front()
    }
}

static POOL: OnceLock<Arc<Pool>> = OnceLock::new();

fn pool() -> &'static Arc<Pool> {
    POOL.get_or_init(|| {
        let pool = Arc::new(Pool {
            state: Mutex::new(PoolState {
                queue: VecDeque::new(),
            }),
            work_ready: Condvar::new(),
        });
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .saturating_sub(1);
        for i in 0..workers {
            let pool = Arc::clone(&pool);
            #[expect(
                clippy::expect_used,
                reason = "a pool that cannot spawn its workers at start-up has no degraded mode"
            )]
            std::thread::Builder::new()
                .name(format!("tg-tensor-worker-{i}"))
                .spawn(move || worker_loop(&pool))
                .expect("failed to spawn pool worker");
        }
        pool
    })
}

fn worker_loop(pool: &Pool) {
    loop {
        let job = {
            let mut st = pool.state.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                if let Some(job) = st.queue.pop_front() {
                    break job;
                }
                st = pool
                    .work_ready
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        job();
    }
}

/// Completion latch for one submitted batch. Tasks signal through a drop
/// guard so a panicking task still counts down; the panic flag is
/// re-raised on the submitting thread.
struct Latch {
    remaining: AtomicUsize,
    panicked: AtomicBool,
}

struct LatchGuard<'a>(&'a Latch);

impl Drop for LatchGuard<'_> {
    fn drop(&mut self) {
        self.0.remaining.fetch_sub(1, Ordering::Release);
    }
}

/// Run a set of scoped tasks on the pool, blocking (and helping) until all
/// complete. The `'scope` lifetime is erased; safety rests on this
/// function not returning until every task has finished running.
fn run_scoped<'scope>(tasks: Vec<Box<dyn FnOnce() + Send + 'scope>>) {
    if tasks.is_empty() {
        return;
    }
    let latch = Arc::new(Latch {
        remaining: AtomicUsize::new(tasks.len()),
        panicked: AtomicBool::new(false),
    });
    let pool = pool();
    let jobs: Vec<Job> = tasks
        .into_iter()
        .map(|task| {
            // SAFETY: erase 'scope to 'static. run_scoped blocks until the
            // latch hits zero, and the latch is decremented from a drop
            // guard that runs after (or during unwind of) the task body,
            // so no task can touch its borrows after run_scoped returns.
            let task: Box<dyn FnOnce() + Send + 'static> = unsafe { std::mem::transmute(task) };
            let latch = Arc::clone(&latch);
            Box::new(move || {
                let _guard = LatchGuard(&latch);
                if catch_unwind(AssertUnwindSafe(task)).is_err() {
                    latch.panicked.store(true, Ordering::Release);
                }
            }) as Job
        })
        .collect();
    pool.push_jobs(jobs);

    // Help: drain tasks (ours or anyone's) while waiting. Spin briefly
    // when the queue is empty but our batch is still in flight on workers,
    // then back off to short sleeps to avoid burning a core.
    let mut idle_spins = 0u32;
    while latch.remaining.load(Ordering::Acquire) > 0 {
        match pool.try_pop() {
            Some(job) => {
                idle_spins = 0;
                job();
            }
            None if idle_spins < 128 => {
                idle_spins += 1;
                std::thread::yield_now();
            }
            None => std::thread::sleep(std::time::Duration::from_micros(50)),
        }
    }
    #[expect(
        clippy::panic,
        reason = "a task panicked on a worker; the panic is re-raised on the thread that waits for it"
    )]
    if latch.panicked.load(Ordering::Acquire) {
        panic!("parallel worker panicked");
    }
}

/// Split `data` into contiguous chunks whose lengths are multiples of
/// `row_len` and invoke `f(start_row, chunk)` for each, in parallel.
///
/// `f` receives the index of the first *row* of its chunk so kernels can
/// locate themselves in the full matrix.
pub fn par_chunks_mut<F>(data: &mut [f32], row_len: usize, f: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    assert!(
        row_len > 0 && data.len().is_multiple_of(row_len),
        "par_chunks_mut: ragged rows"
    );
    let n_rows = data.len() / row_len;
    let threads = num_threads().min(n_rows).max(1);
    if threads == 1 {
        f(0, data);
        return;
    }
    let rows_per = n_rows.div_ceil(threads);
    let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::with_capacity(threads);
    let mut rest = data;
    let mut row0 = 0usize;
    while !rest.is_empty() {
        let take = (rows_per * row_len).min(rest.len());
        let (chunk, tail) = rest.split_at_mut(take);
        rest = tail;
        let fr = &f;
        let r0 = row0;
        tasks.push(Box::new(move || fr(r0, chunk)));
        row0 += take / row_len;
    }
    run_scoped(tasks);
}

/// Run `f(i)` for each `i in 0..n` in parallel, collecting results in order.
pub fn par_map<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = num_threads().min(n).max(1);
    if threads <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let per = n.div_ceil(threads);
    let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::with_capacity(threads);
    let mut rest = out.as_mut_slice();
    let mut start = 0usize;
    while !rest.is_empty() {
        let take = per.min(rest.len());
        let (chunk, tail) = rest.split_at_mut(take);
        rest = tail;
        let fr = &f;
        let s0 = start;
        tasks.push(Box::new(move || {
            for (j, slot) in chunk.iter_mut().enumerate() {
                *slot = Some(fr(s0 + j));
            }
        }));
        start += take;
    }
    run_scoped(tasks);
    #[expect(
        clippy::expect_used,
        reason = "`run_scoped` returns after every chunk task has filled its slots"
    )]
    out.into_iter()
        .map(|x| x.expect("par_map slot unfilled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_chunks_covers_all_rows_once() {
        let rows = 37;
        let cols = 5;
        let mut buf = vec![0.0f32; rows * cols];
        par_chunks_mut(&mut buf, cols, |r0, chunk| {
            for (i, row) in chunk.chunks_mut(cols).enumerate() {
                for v in row.iter_mut() {
                    *v += (r0 + i) as f32;
                }
            }
        });
        for r in 0..rows {
            for c in 0..cols {
                assert_eq!(buf[r * cols + c], r as f32, "row {r} col {c}");
            }
        }
    }

    #[test]
    fn par_map_preserves_order() {
        let v = par_map(100, |i| i * i);
        for (i, x) in v.iter().enumerate() {
            assert_eq!(*x, i * i);
        }
    }

    #[test]
    fn thread_pin_is_scoped_and_serialised() {
        {
            let _pin = ThreadPin::new(3);
            assert_eq!(num_threads(), 3);
            {
                // nested pins from the same thread would deadlock on the
                // global lock, so nesting uses set_num_threads directly
                set_num_threads(2);
                assert_eq!(num_threads(), 2);
                set_num_threads(3);
            }
            assert_eq!(num_threads(), 3);
        }
        assert!(num_threads() >= 1);
    }

    #[test]
    fn par_map_empty() {
        let v: Vec<usize> = par_map(0, |i| i);
        assert!(v.is_empty());
    }

    #[test]
    fn pool_survives_many_batches() {
        // Regression for the per-call spawn/join design: submit many small
        // batches back to back; the pool must stay healthy throughout.
        for round in 0..200 {
            let v = par_map(8, move |i| i + round);
            assert_eq!(v[0], round);
        }
    }

    #[test]
    fn nested_parallel_sections_complete() {
        // A task that itself fans out must not deadlock the pool (caller
        // helps drain the queue while waiting).
        let outer = par_map(4, |i| {
            let inner = par_map(4, move |j| i * 10 + j);
            inner.into_iter().sum::<usize>()
        });
        assert_eq!(outer.len(), 4);
        for (i, s) in outer.iter().enumerate() {
            assert_eq!(*s, i * 40 + 6);
        }
    }

    #[test]
    fn worker_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            par_map(8, |i| {
                if i == 5 {
                    panic!("boom");
                }
                i
            })
        });
        assert!(result.is_err(), "panic must propagate to the submitter");
        // pool must still work afterwards
        let v = par_map(4, |i| i * 2);
        assert_eq!(v, vec![0, 2, 4, 6]);
    }

    #[test]
    fn serial_pin_matches_parallel_result() {
        let parallel = par_map(64, |i| (i as f32).sqrt());
        let serial = {
            let _pin = ThreadPin::new(1);
            par_map(64, |i| (i as f32).sqrt())
        };
        assert_eq!(parallel, serial);
    }
}
