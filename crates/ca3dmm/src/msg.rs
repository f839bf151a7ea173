//! Message helpers: matrices on the wire.

use dense::{Mat, Scalar};
use msgpass::Payload;
use std::sync::Arc;

/// A matrix block as a message payload. Dimensions travel with the data
/// because Cannon's shifts move blocks of varying shape when the matrix
/// dimensions do not divide evenly.
///
/// Only the element data counts as payload bytes: in MPI the shape would be
/// encoded by the datatype/count arguments, which the paper's volume
/// analysis (and therefore our traffic accounting) does not charge.
#[derive(Clone)]
pub struct BlockMsg<T: Scalar> {
    /// Rows of the block.
    pub rows: usize,
    /// Columns of the block.
    pub cols: usize,
    /// Row-major elements.
    pub data: Vec<T>,
}

impl<T: Scalar> Payload for BlockMsg<T> {
    fn nbytes(&self) -> usize {
        self.data.len() * T::WIRE_BYTES
    }
}

/// Wraps a matrix for sending.
pub fn to_msg<T: Scalar>(m: Mat<T>) -> BlockMsg<T> {
    let (rows, cols) = m.shape();
    BlockMsg {
        rows,
        cols,
        data: m.into_vec(),
    }
}

/// Unwraps a received matrix.
pub fn from_msg<T: Scalar>(msg: BlockMsg<T>) -> Mat<T> {
    Mat::from_vec(msg.rows, msg.cols, msg.data)
}

/// An `Arc`-shared matrix block as a message payload — the zero-copy wire
/// format of the Cannon shift pipeline. Sending clones a reference count
/// (so an `isend` can ship a block the local GEMM is still reading), and
/// on this in-process runtime the receiver adopts the sender's allocation
/// outright: blocks circulate around the ring with no element copies and
/// no per-round `Vec` allocations.
///
/// Wire bytes still count the full element data (as [`BlockMsg`] does), so
/// traffic accounting — and therefore the model-vs-measured validation —
/// is unchanged by the zero-copy representation. Redistribution
/// (`layout::redist`) ships its source blocks the same way, charging each
/// message the bytes of the pieces its receiver reads.
pub struct SharedBlock<T: Scalar>(pub Arc<Mat<T>>);

impl<T: Scalar> Payload for SharedBlock<T> {
    fn nbytes(&self) -> usize {
        self.0.len() * T::WIRE_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let m = Mat::from_fn(3, 4, |i, j| (i * 4 + j) as f64);
        let msg = to_msg(m.clone());
        assert_eq!((msg.rows, msg.cols), (3, 4));
        let back = from_msg(msg);
        assert_eq!(back.max_abs_diff(&m), 0.0);
    }

    #[test]
    fn payload_counts_only_elements() {
        let m = Mat::<f64>::zeros(2, 3);
        assert_eq!(to_msg(m).nbytes(), 6 * 8);
        let m = Mat::<f32>::zeros(0, 5);
        assert_eq!(to_msg(m).nbytes(), 0);
        assert_eq!(SharedBlock(Arc::new(Mat::<f32>::zeros(3, 5))).nbytes(), 60);
    }

    /// A shape-only block stores nothing and still charges the bytes of
    /// the `f64` block it stands for, in both wire formats.
    #[test]
    fn shape_only_blocks_charge_f64_bytes() {
        use dense::Shape64;
        let m = Mat::<Shape64>::zeros(300, 700);
        assert_eq!(to_msg(m.clone()).nbytes(), 300 * 700 * 8);
        assert_eq!(SharedBlock(Arc::new(m.clone())).nbytes(), 300 * 700 * 8);
        assert_eq!(from_msg(to_msg(m)).shape(), (300, 700));
    }
}
