//! The flight registry: one map of in-flight requests, keyed by flight key,
//! that coalescing and live attach share.
//!
//! The first caller to [`Flights::join`] a key **leads**: it gets a
//! [`LeaderToken`] and computes the reply. Callers joining before the leader
//! finishes **follow**: they block until the reply is published and receive
//! a clone of it. The token completes the flight; dropped without
//! completing (the leader unwound), it abandons the flight, so followers
//! wake with an error instead of hanging.
//!
//! The invariant the server relies on: the leader inserts its answer into
//! the kernel cache *before* completing the flight, and a new leader
//! re-checks the cache's memory front before it searches. So a request for
//! a given key hits the cache, joins the flight, or leads it — with a cold
//! cache, exactly one search runs no matter how many identical requests
//! race.
//!
//! A flight also holds the latest progress frame its search published and
//! the number of frames published so far. A watcher [attaches](Flights::attach)
//! and reads with [`Flight::next_frame`]: it waits until the count moves or
//! the flight ends, then takes the newest frame. A watcher that keeps up
//! sees every frame, a slow one skips ahead to the newest, and the server
//! holds one frame per flight whatever its watchers do. The stream ends
//! with a `finished` frame, synthesized as `Abandoned` with the last known
//! counters if the flight ends without one.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use sortsynth_obs::SearchProgress;

use crate::lock;
use crate::proto::Response;

/// The in-flight requests, by flight key.
#[derive(Default)]
pub(crate) struct Flights {
    map: Mutex<HashMap<u64, Arc<Flight>>>,
    /// Signalled when a flight starts, for watchers waiting on one.
    started: Condvar,
}

/// One in-flight request: its result slot and its search's latest frame.
#[derive(Default)]
pub(crate) struct Flight {
    state: Mutex<State>,
    /// Signalled when a frame is published or the flight ends.
    changed: Condvar,
}

#[derive(Default)]
struct State {
    result: Slot,
    latest: Option<SearchProgress>,
    published: u64,
}

#[derive(Default)]
enum Slot {
    #[default]
    Flying,
    Abandoned,
    Done(Response),
}

/// The outcome of joining a key.
pub(crate) enum Role<'a> {
    /// This caller computes the reply.
    Leader(LeaderToken<'a>),
    /// Another caller computed it; here is its reply (`None` if it
    /// abandoned the flight).
    Follower(Option<Response>),
}

/// Proof of leadership for one key. Complete it with the reply; dropping
/// it without completing abandons the flight.
pub(crate) struct LeaderToken<'a> {
    flights: &'a Flights,
    key: u64,
    flight: Arc<Flight>,
}

impl Flights {
    /// Joins the flight for `key`: leads if none is active, else blocks as a
    /// follower until the active leader finishes.
    pub(crate) fn join(&self, key: u64) -> Role<'_> {
        let flight = {
            let mut map = lock(&self.map);
            if let Some(flight) = map.get(&key) {
                Arc::clone(flight)
            } else {
                let flight = Arc::new(Flight::default());
                map.insert(key, Arc::clone(&flight));
                self.started.notify_all();
                return Role::Leader(LeaderToken {
                    flights: self,
                    key,
                    flight,
                });
            }
        };
        let flying = |state: &mut State| matches!(state.result, Slot::Flying);
        let state = flight
            .changed
            .wait_while(lock(&flight.state), flying)
            .unwrap_or_else(|e| e.into_inner());
        match &state.result {
            Slot::Done(response) => Role::Follower(Some(response.clone())),
            _ => Role::Follower(None),
        }
    }

    /// The flight under `key`, waiting up to `wait` for one to start; `None`
    /// if none did.
    pub(crate) fn attach(&self, key: u64, wait: Duration) -> Option<Arc<Flight>> {
        let absent = |map: &mut HashMap<u64, Arc<Flight>>| !map.contains_key(&key);
        let (map, _) = self
            .started
            .wait_timeout_while(lock(&self.map), wait, absent)
            .unwrap_or_else(|e| e.into_inner());
        map.get(&key).cloned()
    }
}

impl Flight {
    /// Replaces the latest frame and wakes the watchers.
    pub(crate) fn publish(&self, frame: &SearchProgress) {
        let mut state = lock(&self.state);
        state.latest = Some(frame.clone());
        state.published += 1;
        self.changed.notify_all();
    }

    /// Blocks until a frame after the first `seen` is published or the
    /// flight ends, and returns the newest frame (advancing `seen`). Once
    /// the flight has ended and every frame was read, returns a synthesized
    /// `Abandoned` final frame carrying the last known counters. A caller
    /// stops after the first `finished` frame.
    pub(crate) fn next_frame(&self, seen: &mut u64) -> SearchProgress {
        let mut state = lock(&self.state);
        loop {
            if state.published > *seen {
                *seen = state.published;
                return state.latest.clone().unwrap_or_default();
            }
            if !matches!(state.result, Slot::Flying) {
                return SearchProgress {
                    finished: true,
                    outcome: Some("Abandoned".to_string()),
                    ..state.latest.clone().unwrap_or_default()
                };
            }
            state = self.changed.wait(state).unwrap_or_else(|e| e.into_inner());
        }
    }
}

impl LeaderToken<'_> {
    /// Publishes the reply and releases the key: followers wake with a
    /// clone, later joiners start a fresh flight.
    pub(crate) fn complete(self, response: Response) {
        lock(&self.flight.state).result = Slot::Done(response);
        // `Drop` releases the key and wakes the followers.
    }
}

impl Drop for LeaderToken<'_> {
    fn drop(&mut self) {
        lock(&self.flights.map).remove(&self.key);
        let mut state = lock(&self.flight.state);
        if matches!(state.result, Slot::Flying) {
            state.result = Slot::Abandoned;
        }
        self.flight.changed.notify_all();
    }
}

#[cfg(test)]
impl Flights {
    /// Number of in-flight keys.
    pub(crate) fn in_flight(&self) -> usize {
        lock(&self.map).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Instant;

    fn reply(n: u64) -> Response {
        Response::Metrics {
            text: n.to_string(),
        }
    }

    fn frame(expanded: u64, finished: bool) -> SearchProgress {
        SearchProgress {
            expanded,
            finished,
            ..SearchProgress::default()
        }
    }

    fn lead(flights: &Flights, key: u64) -> LeaderToken<'_> {
        match flights.join(key) {
            Role::Leader(token) => token,
            Role::Follower(_) => panic!("key {key} should lead"),
        }
    }

    #[test]
    fn one_leader_and_many_followers_get_one_result() {
        let flights = Flights::default();
        let computations = AtomicU64::new(0);
        let agreed = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| match flights.join(42) {
                    Role::Leader(token) => {
                        computations.fetch_add(1, Ordering::SeqCst);
                        // Complete only once the map, this token and all
                        // seven followers hold the flight.
                        while Arc::strong_count(&token.flight) < 9 {
                            std::thread::yield_now();
                        }
                        token.complete(reply(1234));
                    }
                    Role::Follower(result) => {
                        assert_eq!(result, Some(reply(1234)));
                        agreed.fetch_add(1, Ordering::SeqCst);
                    }
                });
            }
        });
        assert_eq!(computations.load(Ordering::SeqCst), 1);
        assert_eq!(agreed.load(Ordering::SeqCst), 7);
        assert_eq!(flights.in_flight(), 0);
    }

    #[test]
    fn distinct_keys_fly_independently() {
        let flights = Flights::default();
        let (a, b) = (lead(&flights, 1), lead(&flights, 2));
        assert_eq!(flights.in_flight(), 2);
        a.complete(reply(10));
        b.complete(reply(20));
        assert_eq!(flights.in_flight(), 0);
        // Keys are reusable after completion.
        assert!(matches!(flights.join(1), Role::Leader(_)));
    }

    #[test]
    fn an_abandoned_leader_wakes_followers_with_an_error() {
        let flights = Flights::default();
        std::thread::scope(|scope| {
            let token = lead(&flights, 7);
            let follower = scope.spawn(|| match flights.join(7) {
                Role::Follower(result) => result,
                // The join raced past the abandonment: a fresh flight, which
                // we complete normally.
                Role::Leader(token) => {
                    token.complete(reply(99));
                    Some(reply(99))
                }
            });
            std::thread::sleep(Duration::from_millis(20));
            drop(token); // the leader dies without completing
            let got = follower.join().unwrap();
            assert!(got.is_none() || got == Some(reply(99)));
        });
        assert_eq!(flights.in_flight(), 0);
    }

    #[test]
    fn a_watcher_is_primed_with_the_latest_frame_and_the_finished_frame_ends_the_stream() {
        let flights = Flights::default();
        let token = lead(&flights, 7);
        token.flight.publish(&frame(10, false));
        let flight = flights.attach(7, Duration::ZERO).expect("flight is live");
        let mut seen = 0;
        assert_eq!(flight.next_frame(&mut seen).expanded, 10, "primed");
        flight.publish(&frame(20, false));
        assert_eq!(flight.next_frame(&mut seen).expanded, 20);
        flight.publish(&frame(30, true));
        let fin = flight.next_frame(&mut seen);
        assert_eq!((fin.expanded, fin.finished), (30, true));
        assert_eq!(fin.outcome, None, "the search's own final frame");
        token.complete(reply(1));
        assert_eq!(flights.in_flight(), 0);
        assert!(flights.attach(7, Duration::ZERO).is_none());
    }

    #[test]
    fn a_dropped_leader_ends_the_stream_with_an_abandoned_frame() {
        let flights = Flights::default();
        let token = lead(&flights, 3);
        let flight = flights.attach(3, Duration::ZERO).unwrap();
        flight.publish(&frame(42, false));
        let mut seen = 0;
        assert_eq!(flight.next_frame(&mut seen).expanded, 42);
        drop(token); // the search unwound: no finished frame was published
        let fin = flight.next_frame(&mut seen);
        assert!(fin.finished);
        assert_eq!(fin.outcome.as_deref(), Some("Abandoned"));
        assert_eq!(fin.expanded, 42, "carries the last known counters");
        assert_eq!(flights.in_flight(), 0);
    }

    #[test]
    fn a_slow_watcher_skips_to_the_newest_frame() {
        let flights = Flights::default();
        let token = lead(&flights, 5);
        let flight = flights.attach(5, Duration::ZERO).unwrap();
        for expanded in 1..=10_000 {
            flight.publish(&frame(expanded, false));
        }
        let mut seen = 0;
        assert_eq!(flight.next_frame(&mut seen).expanded, 10_000);
        flight.publish(&frame(10_001, true));
        let fin = flight.next_frame(&mut seen);
        assert_eq!((fin.expanded, fin.finished), (10_001, true));
        drop(token);
    }

    #[test]
    fn every_watcher_sees_the_newest_frame() {
        let flights = Flights::default();
        let _token = lead(&flights, 1);
        let a = flights.attach(1, Duration::ZERO).unwrap();
        let b = flights.attach(1, Duration::ZERO).unwrap();
        a.publish(&frame(5, false));
        let (mut seen_a, mut seen_b) = (0, 0);
        assert_eq!(a.next_frame(&mut seen_a).expanded, 5);
        assert_eq!(b.next_frame(&mut seen_b).expanded, 5);
        // A watcher blocks until the next frame, and every watcher wakes.
        std::thread::scope(|scope| {
            let readers = [(&a, seen_a), (&b, seen_b)]
                .map(|(flight, mut seen)| scope.spawn(move || flight.next_frame(&mut seen)));
            std::thread::sleep(Duration::from_millis(20));
            a.publish(&frame(6, false));
            for reader in readers {
                assert_eq!(reader.join().unwrap().expanded, 6);
            }
        });
    }

    #[test]
    fn attach_waits_for_a_flight_to_start_and_times_out_on_an_absent_one() {
        let flights = Flights::default();
        std::thread::scope(|scope| {
            let (attached, on_attach) = std::sync::mpsc::sync_channel(1);
            let flights = &flights;
            scope.spawn(move || {
                std::thread::sleep(Duration::from_millis(60));
                let token = lead(flights, 9);
                on_attach.recv().unwrap();
                token.flight.publish(&frame(1, true));
                token.complete(reply(9));
            });
            let flight = flights
                .attach(9, Duration::from_secs(5))
                .expect("the flight appears within the window");
            attached.send(()).unwrap();
            assert!(flight.next_frame(&mut 0).finished);
        });
        let started = Instant::now();
        assert!(
            flights.attach(1234, Duration::from_millis(30)).is_none(),
            "an absent flight times out"
        );
        assert!(started.elapsed() >= Duration::from_millis(30));
        // A wait too long for an `Instant` waits without a deadline.
        std::thread::scope(|scope| {
            let watcher = scope.spawn(|| flights.attach(10, Duration::MAX).is_some());
            std::thread::sleep(Duration::from_millis(20));
            let token = lead(&flights, 10);
            assert!(watcher.join().unwrap());
            drop(token);
        });
    }

    #[test]
    fn a_successor_flight_survives_the_old_search() {
        let flights = Flights::default();
        let old = lead(&flights, 5);
        let old_flight = Arc::clone(&old.flight);
        old.complete(reply(1));
        let new = lead(&flights, 5);
        // The old search's progress hook still holds its own flight; a late
        // frame lands there, never in the successor, and dropping it late
        // releases nothing of the successor's.
        old_flight.publish(&frame(99, true));
        drop(old_flight);
        let flight = flights.attach(5, Duration::ZERO).unwrap();
        assert!(Arc::ptr_eq(&flight, &new.flight));
        assert_eq!(flights.in_flight(), 1);
        new.flight.publish(&frame(1, false));
        assert_eq!(flight.next_frame(&mut 0).expanded, 1);
        drop(new);
        assert_eq!(flights.in_flight(), 0);
    }
}
