//! Offline stand-in for the `crossbeam` crate.
//!
//! Only [`channel`] is provided: MPMC bounded/unbounded channels built on
//! `Mutex` + `Condvar` with the same API shape as `crossbeam-channel`.
//! Throughput is lower than the real lock-free implementation but the
//! semantics (disconnect on last sender/receiver drop, non-blocking
//! `try_send`, `recv_timeout`) match.
//!
//! Each side counts its parked threads under the mutex and signals a
//! condvar only when the other side has someone parked: on Linux a
//! `Condvar::notify_one` is a futex syscall even with no waiter, which
//! would otherwise cost every send and every receive one.

#![forbid(unsafe_code)]

/// MPMC channels in the style of `crossbeam-channel`.
pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex, MutexGuard};
    use std::time::{Duration, Instant};

    struct State<T> {
        queue: VecDeque<T>,
        cap: Option<usize>,
        senders: usize,
        receivers: usize,
        /// Receivers parked on `not_empty`.
        parked_receivers: usize,
        /// Senders parked on `not_full`.
        parked_senders: usize,
    }

    struct Shared<T> {
        state: Mutex<State<T>>,
        not_empty: Condvar,
        not_full: Condvar,
    }

    impl<T> Shared<T> {
        fn lock(&self) -> MutexGuard<'_, State<T>> {
            self.state.lock().unwrap_or_else(|e| e.into_inner())
        }

        /// Queues `msg` and wakes one parked receiver, if any.
        fn push(&self, mut st: MutexGuard<'_, State<T>>, msg: T) {
            st.queue.push_back(msg);
            let wake = st.parked_receivers > 0;
            drop(st);
            if wake {
                self.not_empty.notify_one();
            }
        }

        /// Dequeues a message, waking one parked sender when it frees a slot.
        fn pop(&self, st: &mut MutexGuard<'_, State<T>>) -> Option<T> {
            let v = st.queue.pop_front()?;
            if st.parked_senders > 0 {
                self.not_full.notify_one();
            }
            Some(v)
        }
    }

    /// The sending half of a channel.
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    /// The receiving half of a channel.
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    /// Error returned by [`Sender::send`] when all receivers are gone.
    #[derive(PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    /// Error returned by [`Sender::try_send`].
    #[derive(PartialEq, Eq)]
    pub enum TrySendError<T> {
        /// The channel is bounded and full; the message is handed back.
        Full(T),
        /// All receivers are gone; the message is handed back.
        Disconnected(T),
    }

    /// Error returned by [`Receiver::recv`] when the channel is empty and
    /// all senders are gone.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    pub struct RecvError;

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    pub enum TryRecvError {
        /// Nothing queued right now.
        Empty,
        /// Empty and all senders are gone.
        Disconnected,
    }

    /// Error returned by [`Receiver::recv_timeout`].
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    pub enum RecvTimeoutError {
        /// The timeout elapsed with nothing queued.
        Timeout,
        /// Empty and all senders are gone.
        Disconnected,
    }

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    impl<T> fmt::Debug for TrySendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TrySendError::Full(_) => f.write_str("Full(..)"),
                TrySendError::Disconnected(_) => f.write_str("Disconnected(..)"),
            }
        }
    }

    /// Creates a channel holding at most `cap` queued messages.
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        with_cap(Some(cap))
    }

    /// Creates a channel with an unbounded queue.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        with_cap(None)
    }

    fn with_cap<T>(cap: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                cap,
                senders: 1,
                receivers: 1,
                parked_receivers: 0,
                parked_senders: 0,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        });
        (
            Sender {
                shared: Arc::clone(&shared),
            },
            Receiver { shared },
        )
    }

    impl<T> Sender<T> {
        /// Queues `msg`, blocking while the channel is full.
        pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
            let mut st = self.shared.lock();
            loop {
                if st.receivers == 0 {
                    return Err(SendError(msg));
                }
                match st.cap {
                    Some(c) if st.queue.len() >= c => {
                        st.parked_senders += 1;
                        st = self
                            .shared
                            .not_full
                            .wait(st)
                            .unwrap_or_else(|e| e.into_inner());
                        st.parked_senders -= 1;
                    }
                    _ => break,
                }
            }
            self.shared.push(st, msg);
            Ok(())
        }

        /// Queues `msg` without blocking.
        pub fn try_send(&self, msg: T) -> Result<(), TrySendError<T>> {
            let st = self.shared.lock();
            if st.receivers == 0 {
                return Err(TrySendError::Disconnected(msg));
            }
            if let Some(c) = st.cap {
                if st.queue.len() >= c {
                    return Err(TrySendError::Full(msg));
                }
            }
            self.shared.push(st, msg);
            Ok(())
        }

        /// Number of queued messages.
        pub fn len(&self) -> usize {
            self.shared.lock().queue.len()
        }

        /// Whether the queue is empty.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Receiver<T> {
        /// Dequeues a message, blocking until one arrives or all senders
        /// are gone.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut st = self.shared.lock();
            loop {
                if let Some(v) = self.shared.pop(&mut st) {
                    return Ok(v);
                }
                if st.senders == 0 {
                    return Err(RecvError);
                }
                st.parked_receivers += 1;
                st = self
                    .shared
                    .not_empty
                    .wait(st)
                    .unwrap_or_else(|e| e.into_inner());
                st.parked_receivers -= 1;
            }
        }

        /// Dequeues a message, waiting at most `timeout`.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let mut st = self.shared.lock();
            // the clock is read only once the queue turns out empty
            let mut deadline = None;
            loop {
                if let Some(v) = self.shared.pop(&mut st) {
                    return Ok(v);
                }
                if st.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                let deadline = *deadline.get_or_insert(now + timeout);
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                st.parked_receivers += 1;
                let (guard, res) = self
                    .shared
                    .not_empty
                    .wait_timeout(st, deadline - now)
                    .unwrap_or_else(|e| e.into_inner());
                st = guard;
                st.parked_receivers -= 1;
                if res.timed_out() && st.queue.is_empty() {
                    return if st.senders == 0 {
                        Err(RecvTimeoutError::Disconnected)
                    } else {
                        Err(RecvTimeoutError::Timeout)
                    };
                }
            }
        }

        /// Dequeues a message without blocking.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut st = self.shared.lock();
            if let Some(v) = self.shared.pop(&mut st) {
                return Ok(v);
            }
            if st.senders == 0 {
                Err(TryRecvError::Disconnected)
            } else {
                Err(TryRecvError::Empty)
            }
        }

        /// Drains currently queued messages without blocking.
        pub fn try_iter(&self) -> TryIter<'_, T> {
            TryIter { rx: self }
        }

        /// Blocking iterator until disconnect.
        pub fn iter(&self) -> Iter<'_, T> {
            Iter { rx: self }
        }

        /// Number of queued messages.
        pub fn len(&self) -> usize {
            self.shared.lock().queue.len()
        }

        /// Whether the queue is empty.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    /// Iterator over immediately available messages.
    pub struct TryIter<'a, T> {
        rx: &'a Receiver<T>,
    }

    impl<T> Iterator for TryIter<'_, T> {
        type Item = T;
        fn next(&mut self) -> Option<T> {
            self.rx.try_recv().ok()
        }
    }

    /// Blocking iterator that ends on disconnect.
    pub struct Iter<'a, T> {
        rx: &'a Receiver<T>,
    }

    impl<T> Iterator for Iter<'_, T> {
        type Item = T;
        fn next(&mut self) -> Option<T> {
            self.rx.recv().ok()
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.shared.lock().senders += 1;
            Sender {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.shared.lock().receivers += 1;
            Receiver {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut st = self.shared.lock();
            st.senders -= 1;
            let last = st.senders == 0;
            drop(st);
            if last {
                self.shared.not_empty.notify_all();
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut st = self.shared.lock();
            st.receivers -= 1;
            let last = st.receivers == 0;
            drop(st);
            if last {
                self.shared.not_full.notify_all();
            }
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::time::Duration;

        #[test]
        fn bounded_backpressure_and_order() {
            let (tx, rx) = bounded(2);
            tx.try_send(1).unwrap();
            tx.try_send(2).unwrap();
            assert!(matches!(tx.try_send(3), Err(TrySendError::Full(3))));
            assert_eq!(rx.recv().unwrap(), 1);
            tx.try_send(3).unwrap();
            assert_eq!(rx.try_iter().collect::<Vec<_>>(), vec![2, 3]);
        }

        #[test]
        fn disconnect_semantics() {
            let (tx, rx) = unbounded::<u32>();
            drop(rx);
            assert!(matches!(tx.try_send(1), Err(TrySendError::Disconnected(1))));
            let (tx2, rx2) = unbounded::<u32>();
            tx2.try_send(9).unwrap();
            drop(tx2);
            assert_eq!(rx2.recv().unwrap(), 9);
            assert_eq!(rx2.recv(), Err(RecvError));
            assert_eq!(
                rx2.recv_timeout(Duration::from_millis(1)),
                Err(RecvTimeoutError::Disconnected)
            );
        }

        #[test]
        fn recv_timeout_times_out() {
            let (_tx, rx) = unbounded::<u32>();
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(10)),
                Err(RecvTimeoutError::Timeout)
            );
        }

        #[test]
        fn cross_thread_handoff() {
            let (tx, rx) = bounded(1);
            let t = std::thread::spawn(move || {
                for i in 0..100 {
                    tx.send(i).unwrap();
                }
            });
            let got: Vec<u32> = rx.iter().collect();
            t.join().unwrap();
            assert_eq!(got, (0..100).collect::<Vec<_>>());
        }

        /// A wait that a lost wake-up would stretch to its full length.
        const LONG: Duration = Duration::from_secs(30);
        /// Far below `LONG`, far above any scheduling delay.
        const PROMPT: Duration = Duration::from_secs(5);

        /// Spins until `n` threads are parked on the channel's receive
        /// (or, with `senders`, send) side.
        fn await_parked<T>(shared: &Shared<T>, n: usize, senders: bool) {
            let start = Instant::now();
            loop {
                let st = shared.lock();
                let parked = if senders {
                    st.parked_senders
                } else {
                    st.parked_receivers
                };
                if parked == n {
                    return;
                }
                drop(st);
                assert!(start.elapsed() < PROMPT, "{n} threads never parked");
                std::thread::yield_now();
            }
        }

        #[test]
        fn try_send_wakes_a_parked_recv_timeout() {
            let (tx, rx) = unbounded::<u32>();
            let shared = Arc::clone(&rx.shared);
            let start = Instant::now();
            let t = std::thread::spawn(move || rx.recv_timeout(LONG));
            await_parked(&shared, 1, false);
            tx.try_send(7).unwrap();
            assert_eq!(t.join().unwrap(), Ok(7));
            assert!(
                start.elapsed() < PROMPT,
                "receiver slept {:?}",
                start.elapsed()
            );
        }

        #[test]
        fn recv_wakes_a_send_blocked_on_a_full_channel() {
            let (tx, rx) = bounded::<u32>(1);
            tx.try_send(1).unwrap();
            let shared = Arc::clone(&tx.shared);
            let start = Instant::now();
            let t = std::thread::spawn(move || tx.send(2));
            await_parked(&shared, 1, true);
            assert_eq!(rx.recv(), Ok(1));
            // `send` has no timeout: poll, so a lost wake-up fails the
            // test instead of hanging it
            while !t.is_finished() {
                assert!(start.elapsed() < PROMPT, "sender never woke");
                std::thread::yield_now();
            }
            assert!(t.join().unwrap().is_ok());
            assert_eq!(rx.recv_timeout(LONG), Ok(2));
        }

        #[test]
        fn each_message_wakes_one_of_several_parked_receivers() {
            const N: usize = 4;
            let (tx, rx) = unbounded::<usize>();
            let shared = Arc::clone(&rx.shared);
            let start = Instant::now();
            let threads: Vec<_> = (0..N)
                .map(|_| {
                    let rx = rx.clone();
                    std::thread::spawn(move || rx.recv_timeout(LONG))
                })
                .collect();
            await_parked(&shared, N, false);
            for i in 0..N {
                tx.try_send(i).unwrap();
            }
            let mut got: Vec<usize> = threads
                .into_iter()
                .map(|t| t.join().unwrap().expect("every receiver gets a message"))
                .collect();
            got.sort_unstable();
            assert_eq!(got, (0..N).collect::<Vec<_>>());
            assert!(
                start.elapsed() < PROMPT,
                "receivers slept {:?}",
                start.elapsed()
            );
        }
    }
}
