//! Worker-count resolution.
//!
//! Precedence: programmatic [`set_threads`] override, then the
//! `FLASH_THREADS` environment variable, then the host's available
//! parallelism. The result is clamped to at least 1.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Programmatic override; 0 means "unset, consult the environment".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Serializes [`ThreadOverrideGuard`] holders so scoped overrides in
/// concurrently running tests cannot interleave.
static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

/// Force the worker count for all subsequent parallel regions in this
/// process. `set_threads(0)` removes the override and restores
/// `FLASH_THREADS` / host-parallelism resolution.
///
/// Intended for tests and benchmarks that need to compare thread counts
/// within one process without mutating the environment.
pub fn set_threads(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::SeqCst);
}

/// Scoped thread-count override: sets [`set_threads`]`(n)` on
/// construction and restores the previous override value on drop.
///
/// [`set_threads`] writes a process-global atomic, so two tests poking
/// it concurrently race and one leaks its override into the other. The
/// guard fixes both hazards: it holds a process-wide lock for its
/// lifetime (guard users serialize against each other) and the restore
/// happens even if the protected scope panics.
///
/// ```
/// let guard = flash_runtime::ThreadOverrideGuard::set(2);
/// assert_eq!(flash_runtime::max_threads(), 2);
/// drop(guard); // previous override (usually "unset") is back
/// ```
#[must_use = "dropping the guard immediately restores the previous override"]
pub struct ThreadOverrideGuard {
    prev: usize,
    _lock: MutexGuard<'static, ()>,
}

impl ThreadOverrideGuard {
    /// Acquires the override lock (blocking on other guard holders) and
    /// forces the worker count to `n` until the guard drops. `n == 0`
    /// scopes an explicit "unset" (environment resolution).
    pub fn set(n: usize) -> Self {
        let lock = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let prev = THREAD_OVERRIDE.swap(n, Ordering::SeqCst);
        ThreadOverrideGuard { prev, _lock: lock }
    }
}

impl Drop for ThreadOverrideGuard {
    fn drop(&mut self) {
        THREAD_OVERRIDE.store(self.prev, Ordering::SeqCst);
    }
}

/// The worker count parallel regions will use right now.
///
/// Resolution order:
/// 1. [`set_threads`] override, if non-zero;
/// 2. `FLASH_THREADS`, if set to a positive integer (non-numeric or zero
///    values are ignored);
/// 3. [`std::thread::available_parallelism`], defaulting to 1 if the
///    host cannot report it.
pub fn max_threads() -> usize {
    let forced = THREAD_OVERRIDE.load(Ordering::SeqCst);
    if forced > 0 {
        return forced;
    }
    if let Ok(v) = std::env::var("FLASH_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn override_wins_and_clears() {
        let guard = ThreadOverrideGuard::set(3);
        assert_eq!(max_threads(), 3);
        let prev = guard.prev;
        drop(guard);
        assert_eq!(THREAD_OVERRIDE.load(Ordering::SeqCst), prev);
        assert!(max_threads() >= 1);
    }

    #[test]
    fn guard_restores_previous_override_and_survives_inner_sets() {
        let outer = ThreadOverrideGuard::set(5);
        assert_eq!(max_threads(), 5);
        // A nested guard from the same thread would deadlock on the
        // override lock; scoped-within-scoped uses the raw setter.
        set_threads(2);
        assert_eq!(max_threads(), 2);
        set_threads(5);
        assert_eq!(max_threads(), 5);
        let prev = outer.prev;
        drop(outer);
        assert_eq!(THREAD_OVERRIDE.load(Ordering::SeqCst), prev);
    }

    #[test]
    fn guard_restores_on_panic() {
        let result = std::panic::catch_unwind(|| {
            let _guard = ThreadOverrideGuard::set(7);
            assert_eq!(max_threads(), 7);
            panic!("scope panics");
        });
        assert!(result.is_err());
        // Taking a fresh guard serializes behind any concurrent test's
        // guard; the baseline it observes must not be the leaked 7.
        let check = ThreadOverrideGuard::set(1);
        assert_ne!(check.prev, 7, "override must not leak past panic");
    }
}
