//! # rana-des — a generic discrete-event-simulation core
//!
//! Every simulated-time subsystem in this workspace (the serving loop, the
//! fleet cluster simulator) is a discrete-event simulation at heart: a set
//! of actors scheduling typed events against one monotonic clock. This
//! crate extracts that core so each simulator only writes its event
//! handlers:
//!
//! * [`EventQueue`] — a binary-heap priority queue of typed events with a
//!   built-in monotonic clock. Same-timestamp delivery order is fully
//!   deterministic: events are keyed by `(time, class, seq)` where `seq`
//!   is the schedule order — never by hash-map iteration order — so a
//!   fixed workload replays byte-identically. A pop leaves the delivered
//!   entry on the heap for the next schedule to overwrite, so the
//!   pop-then-schedule step of a simulator costs one O(log n) sift.
//! * [`EventId`] / [`EventQueue::cancel`] — lazy cancellation of
//!   scheduled events (a failed die cancels its in-flight completion).
//!   `cancel` scans the heap, O(n), so `schedule` and `pop` carry no
//!   per-event bookkeeping; simulators keep one pending event per actor
//!   (arrival streams are pulled lazily), which keeps n small.
//! * [`Streams`] — seeded per-actor RNG streams: each actor draws from its
//!   own generator derived from `(master seed, stream id)` by a documented
//!   SplitMix64 rule, so adding an actor never perturbs the draw sequence
//!   of any other actor.
//!
//! # Example
//!
//! Scheduling an event and draining the queue:
//!
//! ```
//! use rana_des::EventQueue;
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { Arrival(u32), Wake }
//!
//! let mut q: EventQueue<Ev> = EventQueue::new();
//! // Classes break same-timestamp ties: arrivals (class 0) are delivered
//! // before wakes (class 1) scheduled at the same instant.
//! q.schedule(10.0, 1, Ev::Wake);
//! q.schedule(10.0, 0, Ev::Arrival(7));
//! q.schedule(2.5, 0, Ev::Arrival(1));
//!
//! assert_eq!(q.pop(), Some((2.5, Ev::Arrival(1))));
//! assert_eq!(q.pop(), Some((10.0, Ev::Arrival(7))));
//! assert_eq!(q.pop(), Some((10.0, Ev::Wake)));
//! assert_eq!(q.now(), 10.0);
//! assert_eq!(q.pop(), None);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod queue;
pub mod rng;

pub use queue::{EventId, EventQueue};
pub use rng::{stream_seed, Streams};
