//! Offline stand-in for the `crossbeam` crate.
//!
//! Only `crossbeam::channel::{bounded, unbounded, Sender, Receiver}` is used
//! in this workspace (the in-process `ChannelTransport` pair and the
//! reactor's command/work queues); this shim maps those onto
//! `std::sync::mpsc`, which has the same blocking semantics. Unlike
//! crossbeam's, the receiver is not cloneable — multi-consumer users share
//! it behind an `Arc` (its methods take `&self`; an internal mutex makes it
//! `Sync`).

pub mod channel {
    use std::sync::mpsc;
    use std::sync::Mutex;

    /// Error returned when the receiving side has disconnected.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    /// Error returned when the sending side has disconnected.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    /// Error returned by [`Receiver::recv_timeout`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// No message arrived within the timeout.
        Timeout,
        /// The sending side has disconnected.
        Disconnected,
    }

    /// Sending half of a channel.
    #[derive(Debug)]
    pub struct Sender<T> {
        inner: Tx<T>,
    }

    // Manual impl: cloning a sender must not require `T: Clone` (the derive
    // would add that bound).
    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            Sender {
                inner: self.inner.clone(),
            }
        }
    }

    #[derive(Debug)]
    enum Tx<T> {
        Bounded(mpsc::SyncSender<T>),
        Unbounded(mpsc::Sender<T>),
    }

    impl<T> Clone for Tx<T> {
        fn clone(&self) -> Self {
            match self {
                Tx::Bounded(s) => Tx::Bounded(s.clone()),
                Tx::Unbounded(s) => Tx::Unbounded(s.clone()),
            }
        }
    }

    /// Receiving half of a bounded channel.
    ///
    /// Wrapped in a `Mutex` so the handle is `Sync` like crossbeam's receiver
    /// (std's receiver is only `Send`).
    #[derive(Debug)]
    pub struct Receiver<T> {
        inner: Mutex<mpsc::Receiver<T>>,
    }

    impl<T> Sender<T> {
        /// Enqueue the message (blocking on a full bounded channel); errors
        /// if the peer is gone.
        pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
            match &self.inner {
                Tx::Bounded(s) => s.send(msg).map_err(|mpsc::SendError(m)| SendError(m)),
                Tx::Unbounded(s) => s.send(msg).map_err(|mpsc::SendError(m)| SendError(m)),
            }
        }
    }

    impl<T> Receiver<T> {
        /// Block until a message arrives; errors if the peer is gone.
        pub fn recv(&self) -> Result<T, RecvError> {
            self.inner
                .lock()
                .expect("receiver lock")
                .recv()
                .map_err(|_| RecvError)
        }

        /// Block for at most `timeout` waiting for a message.
        pub fn recv_timeout(&self, timeout: std::time::Duration) -> Result<T, RecvTimeoutError> {
            self.inner
                .lock()
                .expect("receiver lock")
                .recv_timeout(timeout)
                .map_err(|e| match e {
                    mpsc::RecvTimeoutError::Timeout => RecvTimeoutError::Timeout,
                    mpsc::RecvTimeoutError::Disconnected => RecvTimeoutError::Disconnected,
                })
        }

        /// Non-blocking receive; `Ok(None)` when the channel is empty.
        pub fn try_recv(&self) -> Result<Option<T>, RecvError> {
            match self.inner.lock().expect("receiver lock").try_recv() {
                Ok(m) => Ok(Some(m)),
                Err(mpsc::TryRecvError::Empty) => Ok(None),
                Err(mpsc::TryRecvError::Disconnected) => Err(RecvError),
            }
        }
    }

    /// Create a bounded channel with capacity `cap`.
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::sync_channel(cap);
        (
            Sender {
                inner: Tx::Bounded(tx),
            },
            Receiver {
                inner: Mutex::new(rx),
            },
        )
    }

    /// Create an unbounded channel: sends never block.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::channel();
        (
            Sender {
                inner: Tx::Unbounded(tx),
            },
            Receiver {
                inner: Mutex::new(rx),
            },
        )
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn roundtrip_and_disconnect() {
            let (tx, rx) = bounded::<u32>(4);
            tx.send(7).unwrap();
            assert_eq!(rx.recv(), Ok(7));
            drop(tx);
            assert_eq!(rx.recv(), Err(RecvError));
        }

        #[test]
        fn recv_timeout_times_out_then_delivers() {
            let (tx, rx) = bounded::<u32>(1);
            assert_eq!(
                rx.recv_timeout(std::time::Duration::from_millis(10)),
                Err(RecvTimeoutError::Timeout)
            );
            tx.send(5).unwrap();
            assert_eq!(rx.recv_timeout(std::time::Duration::from_millis(10)), Ok(5));
            drop(tx);
            assert_eq!(
                rx.recv_timeout(std::time::Duration::from_millis(10)),
                Err(RecvTimeoutError::Disconnected)
            );
        }

        #[test]
        fn send_to_dropped_receiver_errors() {
            let (tx, rx) = bounded::<u32>(1);
            drop(rx);
            assert_eq!(tx.send(1), Err(SendError(1)));
        }

        #[test]
        fn unbounded_send_never_blocks() {
            let (tx, rx) = unbounded::<u32>();
            for i in 0..10_000 {
                tx.send(i).unwrap();
            }
            assert_eq!(rx.recv(), Ok(0));
            assert_eq!(rx.try_recv(), Ok(Some(1)));
        }
    }
}
