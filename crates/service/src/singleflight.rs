//! Single-flight deduplication: concurrent identical requests coalesce onto
//! one computation.
//!
//! The first caller to [`SingleFlight::join`] a key becomes the **leader**
//! and receives a [`LeaderToken`]; everyone else joining before the leader
//! [completes](LeaderToken::complete) becomes a **follower** and blocks
//! until the leader's result is published, then receives a clone of it.
//!
//! The invariant the synthesis server relies on: the leader publishes its
//! result to the kernel cache *before* completing the flight, and a new
//! leader re-checks the cache's memory front before it searches (a request
//! that missed the cache while the previous leader searched can join only
//! after that flight completed). So a request for a given key hits the
//! cache, joins the flight, or leads it — with a cold cache, exactly one
//! search runs no matter how many identical requests race.
//!
//! If a leader unwinds without completing (a panic in the computation), the
//! token's `Drop` publishes `None` so followers wake with an error instead
//! of hanging.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

struct Flight<T> {
    /// `None` = still flying; `Some(None)` = leader abandoned;
    /// `Some(Some(t))` = completed.
    result: Mutex<Option<Option<T>>>,
    cv: Condvar,
}

/// A per-key coalescing map. `T` is the published result type.
pub struct SingleFlight<T> {
    flights: Mutex<HashMap<u64, Arc<Flight<T>>>>,
}

/// Proof of leadership for one key. Complete it with the result; dropping
/// it without completing publishes `None` (abandonment).
pub struct LeaderToken<'a, T: Clone> {
    owner: &'a SingleFlight<T>,
    key: u64,
    completed: bool,
}

/// The outcome of joining a key.
pub enum Role<'a, T: Clone> {
    /// This caller runs the computation.
    Leader(LeaderToken<'a, T>),
    /// Another caller ran it; here is its result (`None` if it abandoned).
    Follower(Option<T>),
}

impl<T: Clone> Default for SingleFlight<T> {
    fn default() -> Self {
        SingleFlight {
            flights: Mutex::new(HashMap::new()),
        }
    }
}

impl<T: Clone> SingleFlight<T> {
    /// Creates an empty coalescing map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Joins the flight for `key`, becoming leader if none is active, or
    /// blocking as a follower until the active leader finishes.
    pub fn join(&self, key: u64) -> Role<'_, T> {
        let flight = {
            let mut flights = self.flights.lock();
            match flights.get(&key) {
                Some(flight) => Arc::clone(flight),
                None => {
                    flights.insert(
                        key,
                        Arc::new(Flight {
                            result: Mutex::new(None),
                            cv: Condvar::new(),
                        }),
                    );
                    return Role::Leader(LeaderToken {
                        owner: self,
                        key,
                        completed: false,
                    });
                }
            }
        };
        let mut result = flight.result.lock();
        while result.is_none() {
            flight.cv.wait(&mut result);
        }
        Role::Follower(result.clone().expect("checked Some above"))
    }

    /// Number of in-flight keys (diagnostics).
    pub fn in_flight(&self) -> usize {
        self.flights.lock().len()
    }

    fn finish(&self, key: u64, result: Option<T>) {
        let flight = self.flights.lock().remove(&key);
        if let Some(flight) = flight {
            *flight.result.lock() = Some(result);
            flight.cv.notify_all();
        }
    }
}

impl<T: Clone> LeaderToken<'_, T> {
    /// Publishes the result and releases the key. Followers wake with a
    /// clone; subsequent joiners start a fresh flight.
    pub fn complete(mut self, result: T) {
        self.completed = true;
        self.owner.finish(self.key, Some(result));
    }
}

impl<T: Clone> Drop for LeaderToken<'_, T> {
    fn drop(&mut self) {
        if !self.completed {
            self.owner.finish(self.key, None);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn single_leader_many_followers() {
        let sf = SingleFlight::<u64>::new();
        let computations = AtomicU64::new(0);
        let agreed = AtomicU64::new(0);
        crossbeam::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|_| match sf.join(42) {
                    Role::Leader(token) => {
                        computations.fetch_add(1, Ordering::SeqCst);
                        std::thread::sleep(std::time::Duration::from_millis(30));
                        token.complete(1234);
                    }
                    Role::Follower(result) => {
                        assert_eq!(result, Some(1234));
                        agreed.fetch_add(1, Ordering::SeqCst);
                    }
                });
            }
        })
        .unwrap();
        assert_eq!(computations.load(Ordering::SeqCst), 1);
        assert_eq!(agreed.load(Ordering::SeqCst), 7);
        assert_eq!(sf.in_flight(), 0);
    }

    #[test]
    fn distinct_keys_fly_independently() {
        let sf = SingleFlight::<u64>::new();
        let (Role::Leader(a), Role::Leader(b)) = (sf.join(1), sf.join(2)) else {
            panic!("both keys should lead");
        };
        assert_eq!(sf.in_flight(), 2);
        a.complete(10);
        b.complete(20);
        assert_eq!(sf.in_flight(), 0);
        // Keys are reusable after completion.
        assert!(matches!(sf.join(1), Role::Leader(_)));
    }

    #[test]
    fn abandoned_leader_wakes_followers_with_none() {
        let sf = SingleFlight::<u64>::new();
        crossbeam::thread::scope(|scope| {
            let Role::Leader(token) = sf.join(7) else {
                panic!("first joiner leads");
            };
            let follower = scope.spawn(|_| match sf.join(7) {
                Role::Follower(result) => result,
                // The join raced past the abandonment: a fresh flight, which
                // we complete normally.
                Role::Leader(token) => {
                    token.complete(99);
                    Some(99)
                }
            });
            std::thread::sleep(std::time::Duration::from_millis(20));
            drop(token); // leader dies without completing
            let got = follower.join().unwrap();
            assert!(got.is_none() || got == Some(99));
        })
        .unwrap();
        assert_eq!(sf.in_flight(), 0);
    }
}
