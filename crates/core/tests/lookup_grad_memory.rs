//! A table lookup's gradient is as big as the rows it touched: the
//! backward of [`Tape::gather_param_rows`] allocates for the looked-up
//! rows, not for the table, and clipping reads no more.
//!
//! Its own test binary because the measurement needs
//! [`TrackingAllocator`] as the global allocator, and one test so no
//! sibling thread allocates under the measurement.

use std::rc::Rc;
use tg_obs::memtrack::{self, TrackingAllocator};
use tg_tensor::matrix::Matrix;
use tg_tensor::optim::clip_global_norm;
use tg_tensor::params::ParamStore;
use tg_tensor::tape::Tape;

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator;

#[test]
fn a_lookup_gradient_allocates_its_rows_not_its_table() {
    const ROWS: usize = 100_000;
    const COLS: usize = 32;
    const TABLE_BYTES: usize = ROWS * COLS * 4;
    let mut store = ParamStore::new();
    let table = store.create("table", Matrix::zeros(ROWS, COLS));
    let mut tape = Tape::new();
    let rows = tape.gather_param_rows(&store, table, Rc::new(vec![7, 99_999, 7, 31_337]));
    let loss = tape.sum(rows);

    memtrack::reset_peak();
    let before = memtrack::current_bytes();
    let mut grads = tape.backward(loss);
    clip_global_norm(&mut grads, 1e-3);
    let used = memtrack::peak_bytes() - before;
    assert!(
        used < TABLE_BYTES / 100,
        "backward and clip of a 4-row lookup allocated {used} bytes; the table is {TABLE_BYTES}"
    );
    drop(grads);
}
