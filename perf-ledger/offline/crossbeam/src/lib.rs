//! Offline stand-in for `crossbeam` (see ../README.md): only
//! `crossbeam::channel`, backed by `std::sync::mpsc` (itself a port of
//! crossbeam-channel since Rust 1.67). Multi-producer, *single*-consumer:
//! `Receiver` is not `Clone`, which the program never needs.

pub mod channel {
    //! `bounded` / `unbounded` channels with crossbeam's method names and
    //! error types.
    use std::sync::mpsc;
    use std::time::Duration;

    pub use std::sync::mpsc::{RecvError, RecvTimeoutError, SendError, TryRecvError, TrySendError};

    enum Tx<T> {
        Unbounded(mpsc::Sender<T>),
        Bounded(mpsc::SyncSender<T>),
    }

    /// The sending half; clone it for more producers.
    pub struct Sender<T>(Tx<T>);

    /// The receiving half.
    pub struct Receiver<T>(mpsc::Receiver<T>);

    /// A channel that never blocks its senders.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::channel();
        (Sender(Tx::Unbounded(tx)), Receiver(rx))
    }

    /// A channel holding at most `cap` messages (`0` is a rendezvous).
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::sync_channel(cap);
        (Sender(Tx::Bounded(tx)), Receiver(rx))
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            Sender(match &self.0 {
                Tx::Unbounded(s) => Tx::Unbounded(s.clone()),
                Tx::Bounded(s) => Tx::Bounded(s.clone()),
            })
        }
    }

    impl<T> Sender<T> {
        /// Send, blocking while a bounded channel is full.
        pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
            match &self.0 {
                Tx::Unbounded(s) => s.send(msg),
                Tx::Bounded(s) => s.send(msg),
            }
        }

        /// Send without blocking.
        pub fn try_send(&self, msg: T) -> Result<(), TrySendError<T>> {
            match &self.0 {
                Tx::Unbounded(s) => s.send(msg).map_err(|e| TrySendError::Disconnected(e.0)),
                Tx::Bounded(s) => s.try_send(msg),
            }
        }
    }

    impl<T> Receiver<T> {
        /// Block until a message arrives or every sender is gone.
        pub fn recv(&self) -> Result<T, RecvError> {
            self.0.recv()
        }

        /// Take a message if one is waiting.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            self.0.try_recv()
        }

        /// Block for at most `timeout`.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            self.0.recv_timeout(timeout)
        }
    }

    impl<T> std::fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("Sender { .. }")
        }
    }

    impl<T> std::fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("Receiver { .. }")
        }
    }
}
