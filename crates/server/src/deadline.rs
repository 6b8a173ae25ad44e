//! Per-request deadlines, watched by one thread.
//!
//! Every request registers its absolute deadline (an [`Instant`], so wall
//! clock jumps cannot fire or starve it) together with the connection's
//! [`Hangup`] handle. A single watchdog thread sleeps until the earliest armed
//! deadline — indefinitely while none is armed — fires every entry that is
//! due, and sleeps again; registering a deadline that becomes the earliest
//! wakes it early. At most one deadline per worker is armed at a time (a
//! request arms one, a connection has one request in flight, a worker serves
//! one connection), so a scan of the armed entries is all the bookkeeping the
//! service needs.
//!
//! Firing sets the entry's `expired` flag and hangs the connection up, which
//! errors the blocked I/O out promptly; the request loop then reports
//! [`DeadlineExpired`](crate::ServerError::DeadlineExpired) and accounts the
//! expiry. Guards cancel themselves on drop, so the happy path never fires.

use crate::transport::Hangup;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Instant;

struct Entry {
    id: u64,
    at: Instant,
    expired: Arc<AtomicBool>,
    hangup: Arc<dyn Hangup>,
}

struct State {
    armed: Vec<Entry>,
    next_id: u64,
    shutdown: bool,
}

struct Inner {
    state: Mutex<State>,
    watchdog: Condvar,
}

/// The armed deadlines and their watchdog. Dropping it stops the watchdog
/// thread; outstanding guards keep their `expired` flags but nothing fires
/// after shutdown.
pub struct Deadlines {
    inner: Arc<Inner>,
    watchdog: Option<std::thread::JoinHandle<()>>,
}

impl Deadlines {
    /// No deadlines armed, and a watchdog waiting for the first.
    #[must_use]
    pub fn new() -> Self {
        let inner = Arc::new(Inner {
            state: Mutex::new(State { armed: Vec::new(), next_id: 1, shutdown: false }),
            watchdog: Condvar::new(),
        });
        let watchdog_inner = Arc::clone(&inner);
        let watchdog = std::thread::Builder::new()
            .name("f2-deadlines".into())
            .spawn(move || run_watchdog(&watchdog_inner))
            .ok();
        Deadlines { inner, watchdog }
    }

    /// Arm a deadline: at `at`, set the guard's expired flag and hang up the
    /// connection. Dropping the guard before then cancels it.
    #[must_use]
    pub fn register(&self, at: Instant, hangup: Arc<dyn Hangup>) -> DeadlineGuard {
        let expired = Arc::new(AtomicBool::new(false));
        let mut state = self.inner.state.lock().unwrap_or_else(PoisonError::into_inner);
        let id = state.next_id;
        state.next_id = state.next_id.wrapping_add(1);
        let earliest = state.armed.iter().all(|entry| at < entry.at);
        state.armed.push(Entry { id, at, expired: Arc::clone(&expired), hangup });
        drop(state);
        if earliest {
            // The watchdog sleeps until the previous earliest deadline (or
            // indefinitely); this one is due sooner.
            self.inner.watchdog.notify_one();
        }
        DeadlineGuard { inner: Arc::clone(&self.inner), id, expired }
    }
}

impl Default for Deadlines {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for Deadlines {
    fn drop(&mut self) {
        self.inner.state.lock().unwrap_or_else(PoisonError::into_inner).shutdown = true;
        self.inner.watchdog.notify_all();
        if let Some(handle) = self.watchdog.take() {
            let _ = handle.join();
        }
    }
}

fn run_watchdog(inner: &Inner) {
    let mut state = inner.state.lock().unwrap_or_else(PoisonError::into_inner);
    loop {
        if state.shutdown {
            return;
        }
        let now = Instant::now();
        let mut due = Vec::new();
        state.armed.retain(|entry| {
            if entry.at <= now {
                entry.expired.store(true, Ordering::SeqCst);
                due.push(Arc::clone(&entry.hangup));
                false
            } else {
                true
            }
        });
        if !due.is_empty() {
            // Hang up outside the lock: a hangup may take a transport mutex
            // held by code that is about to register or cancel a deadline.
            drop(state);
            for hangup in due {
                hangup.hangup();
            }
            state = inner.state.lock().unwrap_or_else(PoisonError::into_inner);
            continue;
        }
        state = match state.armed.iter().map(|entry| entry.at).min() {
            Some(next) => {
                inner
                    .watchdog
                    .wait_timeout(state, next.saturating_duration_since(now))
                    .unwrap_or_else(PoisonError::into_inner)
                    .0
            }
            None => inner.watchdog.wait(state).unwrap_or_else(PoisonError::into_inner),
        };
    }
}

/// An armed deadline. `expired()` reports whether it fired; dropping cancels.
pub struct DeadlineGuard {
    inner: Arc<Inner>,
    id: u64,
    expired: Arc<AtomicBool>,
}

impl DeadlineGuard {
    /// Whether the deadline fired. The hangup follows the flag, outside the
    /// watchdog's lock, so it may still be under way when this first reads `true`.
    #[must_use]
    pub fn expired(&self) -> bool {
        self.expired.load(Ordering::SeqCst)
    }
}

impl Drop for DeadlineGuard {
    fn drop(&mut self) {
        let mut state = self.inner.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.armed.retain(|entry| entry.id != self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    struct FlagHangup(Arc<AtomicBool>);

    impl Hangup for FlagHangup {
        fn hangup(&self) {
            self.0.store(true, Ordering::SeqCst);
        }
    }

    /// Poll `flag` every `step` until it is set or `budget` has passed since
    /// `since`; returns whether it was set.
    fn wait_for(flag: impl Fn() -> bool, since: Instant, budget: Duration, step: Duration) -> bool {
        while !flag() && since.elapsed() < budget {
            std::thread::sleep(step);
        }
        flag()
    }

    #[test]
    fn an_expired_deadline_fires_and_hangs_up() {
        let deadlines = Deadlines::new();
        let hung = Arc::new(AtomicBool::new(false));
        let guard = deadlines.register(
            Instant::now() + Duration::from_millis(5),
            Arc::new(FlagHangup(Arc::clone(&hung))),
        );
        let waited = Instant::now();
        let (budget, step) = (Duration::from_secs(2), Duration::from_millis(5));
        assert!(wait_for(|| guard.expired(), waited, budget, step), "deadline never fired");
        // The hangup follows the flag, outside the watchdog's lock.
        let hung_up = wait_for(|| hung.load(Ordering::SeqCst), waited, budget, step);
        assert!(hung_up, "hangup was not invoked");
    }

    #[test]
    fn a_cancelled_deadline_never_fires() {
        let deadlines = Deadlines::new();
        let hung = Arc::new(AtomicBool::new(false));
        let guard = deadlines.register(
            Instant::now() + Duration::from_millis(30),
            Arc::new(FlagHangup(Arc::clone(&hung))),
        );
        assert!(!guard.expired());
        drop(guard);
        std::thread::sleep(Duration::from_millis(120));
        assert!(!hung.load(Ordering::SeqCst), "cancelled deadline fired");
    }

    #[test]
    fn a_far_deadline_does_not_fire_early() {
        let deadlines = Deadlines::new();
        let hung = Arc::new(AtomicBool::new(false));
        let guard = deadlines.register(
            Instant::now() + Duration::from_secs(600),
            Arc::new(FlagHangup(Arc::clone(&hung))),
        );
        std::thread::sleep(Duration::from_millis(200));
        assert!(!guard.expired(), "far deadline fired early");
        assert!(!hung.load(Ordering::SeqCst));
    }

    #[test]
    fn a_near_deadline_armed_after_a_far_one_fires_on_time() {
        // The watchdog is asleep until the far deadline when the near one is
        // armed; registering the new earliest deadline must wake it.
        let deadlines = Deadlines::new();
        let far_hung = Arc::new(AtomicBool::new(false));
        let far = deadlines.register(
            Instant::now() + Duration::from_secs(600),
            Arc::new(FlagHangup(Arc::clone(&far_hung))),
        );
        std::thread::sleep(Duration::from_millis(20));
        let near_hung = Arc::new(AtomicBool::new(false));
        let armed = Instant::now();
        let near = deadlines.register(
            armed + Duration::from_millis(10),
            Arc::new(FlagHangup(Arc::clone(&near_hung))),
        );
        let (budget, step) = (Duration::from_secs(2), Duration::from_millis(1));
        let fired = wait_for(|| near.expired(), armed, budget, step);
        assert!(fired, "near deadline waited behind the far one");
        // The hangup follows the flag, outside the watchdog's lock.
        let hung_up = wait_for(|| near_hung.load(Ordering::SeqCst), armed, budget, step);
        assert!(hung_up, "hangup was not invoked");
        assert!(armed.elapsed() >= Duration::from_millis(10), "near deadline fired early");
        assert!(!far.expired(), "far deadline fired with the near one");
        assert!(!far_hung.load(Ordering::SeqCst));
    }
}
