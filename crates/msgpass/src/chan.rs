//! A minimal unbounded MPSC channel whose receiver is polled, not blocked.
//!
//! Replaces `crossbeam-channel` so the runtime builds with no external
//! dependencies. Semantics match what the fabric needs: many cloned
//! senders, one receiver per rank, unbounded buffering (sends are eager and
//! never block), and disconnect detection on both sides. The receiver has
//! one operation, [`Receiver::poll_recv`]: an empty queue stores the
//! caller's [`Waker`] and the next send wakes it. The runtime calls it from
//! one place (the private `pull` in `comm`). Whoever owns the waker decides
//! what waking means: a wall-clock rank thread is unparked, a virtual rank
//! is put back on the simulator's run queue.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Waker};

struct State<T> {
    queue: VecDeque<T>,
    senders: usize,
    receiver_alive: bool,
    /// The receiver's waker while it is parked on an empty queue.
    waker: Option<Waker>,
}

/// The sending half; clonable, never blocks.
pub struct Sender<T> {
    shared: Arc<Mutex<State<T>>>,
}

/// The receiving half; polled until a message or sender disconnect.
pub struct Receiver<T> {
    shared: Arc<Mutex<State<T>>>,
}

/// The receiver was dropped before (or while) the message was sent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SendError;

/// Every sender was dropped and the queue is drained.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecvError;

/// Creates a connected sender/receiver pair.
pub fn channel<T>() -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Mutex::new(State {
        queue: VecDeque::new(),
        senders: 1,
        receiver_alive: true,
        waker: None,
    }));
    (
        Sender {
            shared: Arc::clone(&shared),
        },
        Receiver { shared },
    )
}

// Rank threads panic while holding no channel locks, but a panicking rank
// can poison a mutex between another thread's lock attempts; recovering the
// inner state keeps the error that surfaces the *original* panic.
fn lock<T>(shared: &Mutex<State<T>>) -> std::sync::MutexGuard<'_, State<T>> {
    shared
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Wakes the parked receiver, if any, outside the lock.
fn wake<T>(mut st: std::sync::MutexGuard<'_, State<T>>) {
    let waker = st.waker.take();
    drop(st);
    if let Some(w) = waker {
        w.wake();
    }
}

impl<T> Sender<T> {
    /// Enqueues `value`; fails only if the receiver is gone.
    pub fn send(&self, value: T) -> Result<(), SendError> {
        let mut st = lock(&self.shared);
        if !st.receiver_alive {
            return Err(SendError);
        }
        st.queue.push_back(value);
        wake(st);
        Ok(())
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        lock(&self.shared).senders += 1;
        Sender {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut st = lock(&self.shared);
        st.senders -= 1;
        if st.senders == 0 {
            wake(st);
        }
    }
}

impl<T> Receiver<T> {
    /// The next message, or `Pending` with `cx`'s waker stored for the next
    /// send; fails once all senders are gone and the queue is empty.
    pub fn poll_recv(&self, cx: &mut Context<'_>) -> Poll<Result<T, RecvError>> {
        let mut st = lock(&self.shared);
        if let Some(v) = st.queue.pop_front() {
            return Poll::Ready(Ok(v));
        }
        if st.senders == 0 {
            return Poll::Ready(Err(RecvError));
        }
        match &mut st.waker {
            Some(w) if w.will_wake(cx.waker()) => {}
            slot => *slot = Some(cx.waker().clone()),
        }
        Poll::Pending
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        lock(&self.shared).receiver_alive = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::future::poll_fn;

    fn recv<T>(rx: &Receiver<T>) -> Result<T, RecvError> {
        crate::world::block_on(poll_fn(|cx| rx.poll_recv(cx)))
    }

    #[test]
    fn fifo_order() {
        let (tx, rx) = channel();
        for i in 0..10 {
            tx.send(i).unwrap();
        }
        for i in 0..10 {
            assert_eq!(recv(&rx), Ok(i));
        }
    }

    #[test]
    fn cross_thread_delivery() {
        let (tx, rx) = channel();
        let tx2 = tx.clone();
        std::thread::scope(|s| {
            s.spawn(move || tx.send(1u32).unwrap());
            s.spawn(move || tx2.send(2u32).unwrap());
            let a = recv(&rx).unwrap();
            let b = recv(&rx).unwrap();
            assert_eq!(a + b, 3);
        });
    }

    #[test]
    fn empty_queue_pends_until_a_send_wakes_it() {
        let (tx, rx) = channel();
        let mut cx = Context::from_waker(Waker::noop());
        assert!(rx.poll_recv(&mut cx).is_pending());
        std::thread::scope(|s| {
            s.spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(20));
                tx.send(7u8).unwrap();
            });
            assert_eq!(recv(&rx), Ok(7));
        });
    }

    #[test]
    fn disconnect_detection() {
        let (tx, rx) = channel::<u8>();
        tx.send(1).unwrap();
        drop(tx);
        assert_eq!(recv(&rx), Ok(1)); // buffered message still delivered
        assert_eq!(recv(&rx), Err(RecvError));

        let (tx, rx) = channel::<u8>();
        drop(rx);
        assert_eq!(tx.send(1), Err(SendError));
    }
}
