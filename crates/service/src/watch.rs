//! Live attach: a registry of in-flight searches that fans each flight's
//! throttled progress frames out to any number of watchers.
//!
//! The hub is keyed by the same single-flight key the synth path coalesces
//! on, so `watch` observes exactly the one search N identical requests
//! share — attaching adds a channel, never load. A watcher that arrives
//! mid-flight is primed with the most recent frame immediately, then
//! streams live ones; the stream always terminates with a `finished`
//! frame — synthesized as `Abandoned` if the search panicked before
//! delivering its own final snapshot.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};

use sortsynth_obs::SearchProgress;

/// How often [`WatchHub::attach`] re-checks for a flight while waiting for
/// one to start.
const ATTACH_POLL: Duration = Duration::from_millis(20);

/// One registered flight: its subscribers and the last frame published.
struct FlightChannel {
    /// Distinguishes this registration from a later one under the same key,
    /// so a guard dropped late never tears down its successor.
    id: u64,
    subs: Vec<Sender<SearchProgress>>,
    last: Option<SearchProgress>,
}

/// Fan-out registry of in-flight searches.
#[derive(Default)]
pub struct WatchHub {
    flights: Mutex<HashMap<u64, FlightChannel>>,
    next_id: AtomicU64,
}

/// Registration handle held by the search leader for the duration of its
/// run. Dropping it (normally or by unwinding) ends the stream: if the
/// search never published a `finished` frame, subscribers receive a
/// synthetic `Abandoned` one so no watcher hangs.
pub struct WatchGuard<'a> {
    hub: &'a WatchHub,
    key: u64,
    id: u64,
}

impl WatchHub {
    /// Creates an empty hub.
    pub fn new() -> Self {
        WatchHub::default()
    }

    /// Registers a flight under `key` for the leader about to search.
    pub fn begin(&self, key: u64) -> WatchGuard<'_> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let mut flights = self.flights.lock().unwrap_or_else(|e| e.into_inner());
        // A stale channel under the same key (leader panicked between
        // `publish(finished)` and guard drop is impossible, but a crashed
        // guard-less path isn't) is simply replaced; its senders drop.
        flights.insert(
            key,
            FlightChannel {
                id,
                subs: Vec::new(),
                last: None,
            },
        );
        WatchGuard { hub: self, key, id }
    }

    /// Publishes one frame to every subscriber of `key`. A `finished` frame
    /// ends the stream and removes the flight. Unknown keys are ignored
    /// (the flight already ended).
    pub fn publish(&self, key: u64, frame: &SearchProgress) {
        let mut flights = self.flights.lock().unwrap_or_else(|e| e.into_inner());
        let Some(channel) = flights.get_mut(&key) else {
            return;
        };
        channel.subs.retain(|sub| sub.send(frame.clone()).is_ok());
        channel.last = Some(frame.clone());
        if frame.finished {
            flights.remove(&key);
        }
    }

    /// Attaches to the flight under `key`, waiting up to `wait` for one to
    /// start. Returns the live receiver plus the most recent frame (if the
    /// flight has already published one) for immediate delivery; `None` if
    /// no flight appeared within the window.
    pub fn attach(
        &self,
        key: u64,
        wait: Duration,
    ) -> Option<(Receiver<SearchProgress>, Option<SearchProgress>)> {
        let deadline = Instant::now() + wait;
        loop {
            {
                let mut flights = self.flights.lock().unwrap_or_else(|e| e.into_inner());
                if let Some(channel) = flights.get_mut(&key) {
                    let (tx, rx) = unbounded();
                    channel.subs.push(tx);
                    return Some((rx, channel.last.clone()));
                }
            }
            if Instant::now() >= deadline {
                return None;
            }
            std::thread::sleep(ATTACH_POLL);
        }
    }

    /// Number of currently registered flights (tests).
    pub fn active(&self) -> usize {
        self.flights.lock().unwrap_or_else(|e| e.into_inner()).len()
    }
}

impl Drop for WatchGuard<'_> {
    fn drop(&mut self) {
        let mut flights = self.hub.flights.lock().unwrap_or_else(|e| e.into_inner());
        let ours = flights.get(&self.key).is_some_and(|c| c.id == self.id);
        if !ours {
            return; // the finished frame (or a successor flight) cleaned up
        }
        let channel = flights.remove(&self.key).expect("checked above");
        if channel.last.as_ref().is_some_and(|f| f.finished) {
            return;
        }
        // The search unwound without a final snapshot: close the stream
        // explicitly so watchers terminate instead of hanging.
        let mut frame = channel.last.unwrap_or_default();
        frame.finished = true;
        frame.outcome = Some("Abandoned".to_string());
        for sub in &channel.subs {
            let _ = sub.send(frame.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(expanded: u64, finished: bool) -> SearchProgress {
        SearchProgress {
            expanded,
            finished,
            ..SearchProgress::default()
        }
    }

    #[test]
    fn watchers_see_live_frames_and_the_finished_frame_ends_the_flight() {
        let hub = WatchHub::new();
        let guard = hub.begin(7);
        hub.publish(7, &frame(10, false));
        let (rx, last) = hub.attach(7, Duration::ZERO).expect("flight is live");
        assert_eq!(last.unwrap().expanded, 10, "primed with the latest frame");
        hub.publish(7, &frame(20, false));
        hub.publish(7, &frame(30, true));
        assert_eq!(rx.recv().unwrap().expanded, 20);
        let fin = rx.recv().unwrap();
        assert_eq!(fin.expanded, 30);
        assert!(fin.finished);
        assert_eq!(hub.active(), 0, "finished frame removed the flight");
        drop(guard); // late drop must not disturb anything
        assert!(hub.attach(7, Duration::ZERO).is_none());
    }

    #[test]
    fn multiple_watchers_all_receive_each_frame() {
        let hub = WatchHub::new();
        let _guard = hub.begin(1);
        let (a, _) = hub.attach(1, Duration::ZERO).unwrap();
        let (b, _) = hub.attach(1, Duration::ZERO).unwrap();
        hub.publish(1, &frame(5, false));
        assert_eq!(a.recv().unwrap().expanded, 5);
        assert_eq!(b.recv().unwrap().expanded, 5);
    }

    #[test]
    fn dropped_guard_synthesizes_an_abandoned_final_frame() {
        let hub = WatchHub::new();
        let guard = hub.begin(3);
        hub.publish(3, &frame(42, false));
        let (rx, _) = hub.attach(3, Duration::ZERO).unwrap();
        drop(guard); // search panicked: no finished frame was published
        let fin = rx.recv().unwrap();
        assert!(fin.finished);
        assert_eq!(fin.outcome.as_deref(), Some("Abandoned"));
        assert_eq!(fin.expanded, 42, "carries the last known counters");
        assert_eq!(hub.active(), 0);
    }

    #[test]
    fn attach_waits_for_a_flight_to_start() {
        use std::sync::Arc;
        let hub = Arc::new(WatchHub::new());
        let h = Arc::clone(&hub);
        let publisher = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(60));
            let _guard = h.begin(9);
            std::thread::sleep(Duration::from_millis(60));
            h.publish(9, &frame(1, true));
        });
        let (rx, last) = hub
            .attach(9, Duration::from_secs(5))
            .expect("flight appears within the window");
        assert!(last.is_none());
        assert!(rx.recv().unwrap().finished);
        publisher.join().unwrap();
        assert!(
            hub.attach(1234, Duration::from_millis(30)).is_none(),
            "an absent flight times out"
        );
    }

    #[test]
    fn a_new_flight_under_the_same_key_survives_the_old_guard() {
        let hub = WatchHub::new();
        let old = hub.begin(5);
        let _new = hub.begin(5); // replaces the registration
        drop(old); // must not tear down the new flight
        assert_eq!(hub.active(), 1);
        assert!(hub.attach(5, Duration::ZERO).is_some());
    }
}
