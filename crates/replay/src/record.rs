//! The bounded, drop-counted recorder the engine taps.
//!
//! A [`Recorder`] is a fixed ring of slots claimed at submit time and
//! finished at reply time. The two-phase protocol exists because of the
//! engine's fast path: response tables overwrite the request's operand
//! buffer *in place*, so operands must be captured at submission, while
//! responses only exist at reply. A slot moves through
//!
//! ```text
//! Empty ──begin──▶ Pending ──complete──▶ Complete ──take_log──▶ Empty
//!    ▲                │
//!    └────abandon─────┘   (expired / terminally failed / never enqueued)
//! ```
//!
//! Like the observability trace ring, the recorder is bounded and
//! drop-counted: when every slot is occupied, [`Recorder::begin`]
//! declines to record the request, and the engine counts it with
//! [`Recorder::count_dropped`] once the request is admitted (it is still
//! served normally — recording never sheds load; a submission the queue
//! refuses is not a dropped record). Slot buffers are
//! reused across requests (`clear()` + `extend()`), so the steady-state
//! record path allocates nothing once the ring has warmed up.
//!
//! A retried request keeps its slot: the slot stays `Pending` across the
//! requeue and the eventual healthy reply completes the same record, so
//! a recorded trace only ever carries served request/response pairs.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use nacu::Function;
use nacu_fixed::QFormat;

use crate::log::{TraceLog, TraceRecord};

/// The "not recorded" slot token carried by unrecorded jobs (recording
/// disabled, ring full, or the engine format too wide to record).
pub const NO_RECORD_SLOT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotState {
    Empty,
    Pending,
    Complete,
}

#[derive(Debug)]
struct Slot {
    state: SlotState,
    function: Function,
    id: u64,
    deadline_micros: u64,
    conn: u32,
    submit_micros: u64,
    operands: Vec<i16>,
    responses: Vec<i16>,
}

impl Slot {
    fn new() -> Self {
        Self {
            state: SlotState::Empty,
            function: Function::Sigmoid,
            id: 0,
            deadline_micros: 0,
            conn: 0,
            submit_micros: 0,
            operands: Vec::new(),
            responses: Vec::new(),
        }
    }
}

/// A bounded ring of in-flight trace records (see the module docs).
#[derive(Debug)]
pub struct Recorder {
    slots: Box<[Mutex<Slot>]>,
    format: QFormat,
    /// Submit stamps are measured from here, so a trace's timing is
    /// relative to its own recording session, not wall-clock time.
    epoch: Instant,
    /// Monotone claim cursor; `cursor % slots.len()` picks the slot.
    cursor: AtomicU64,
    dropped: AtomicU64,
    captured: AtomicU64,
}

impl Recorder {
    /// A recorder for `capacity` in-flight records of `format`, or `None`
    /// when the format is wider than 16 bits — the log's i16 code fields
    /// cannot round-trip wider codes, so such engines run unrecorded
    /// (the same eligibility rule as the `nacu-net` wire plane).
    #[must_use]
    pub fn for_format(capacity: usize, format: QFormat) -> Option<Self> {
        if format.total_bits() > 16 {
            return None;
        }
        let capacity = capacity.max(1);
        Some(Self {
            slots: (0..capacity).map(|_| Mutex::new(Slot::new())).collect(),
            format,
            epoch: Instant::now(),
            cursor: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            captured: AtomicU64::new(0),
        })
    }

    /// Slot count.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// The format every recorded code is expressed in.
    #[must_use]
    pub fn format(&self) -> QFormat {
        self.format
    }

    /// Admitted requests that could not be recorded because their slot
    /// was still occupied (ring full of undrained or in-flight records).
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Counts one admitted request that [`Recorder::begin`] declined to
    /// record.
    pub fn count_dropped(&self) {
        self.dropped.fetch_add(1, Ordering::Relaxed);
    }

    /// Records completed (request and response both captured).
    #[must_use]
    pub fn captured(&self) -> u64 {
        self.captured.load(Ordering::Relaxed)
    }

    /// Claims a slot and captures the request half of a record — the
    /// submitting client's connection id (`conn`, 0 for in-process) and
    /// a submit stamp measured against the recorder's epoch included.
    /// Returns the slot token to carry on the job, or [`NO_RECORD_SLOT`]
    /// when the ring is saturated (see [`Recorder::count_dropped`]).
    pub fn begin<I>(
        &self,
        id: u64,
        function: Function,
        deadline_micros: u64,
        conn: u32,
        operands: I,
    ) -> u32
    where
        I: IntoIterator<Item = i16>,
    {
        let submit_micros = u64::try_from(self.epoch.elapsed().as_micros()).unwrap_or(u64::MAX);
        let claim = self.cursor.fetch_add(1, Ordering::Relaxed);
        let index = (claim % self.slots.len() as u64) as usize;
        let mut slot = self.slots[index]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if slot.state != SlotState::Empty {
            return NO_RECORD_SLOT;
        }
        slot.state = SlotState::Pending;
        slot.function = function;
        slot.id = id;
        slot.deadline_micros = deadline_micros;
        slot.conn = conn;
        slot.submit_micros = submit_micros;
        slot.operands.clear();
        slot.operands.extend(operands);
        slot.responses.clear();
        index as u32
    }

    /// Captures the response half of a pending record; true when the
    /// record was completed (false for [`NO_RECORD_SLOT`] or a slot not
    /// pending — e.g. already abandoned).
    pub fn complete<I>(&self, slot: u32, responses: I) -> bool
    where
        I: IntoIterator<Item = i16>,
    {
        let Some(cell) = self.slots.get(slot as usize) else {
            return false;
        };
        let mut s = cell.lock().unwrap_or_else(PoisonError::into_inner);
        if s.state != SlotState::Pending {
            return false;
        }
        s.responses.extend(responses);
        s.state = SlotState::Complete;
        self.captured.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Releases a pending slot without a response (deadline expiry,
    /// terminal fault, or a submission that never made it into the
    /// queue). The slot becomes immediately reusable; nothing of the
    /// request appears in the drained log.
    pub fn abandon(&self, slot: u32) {
        let Some(cell) = self.slots.get(slot as usize) else {
            return;
        };
        let mut s = cell.lock().unwrap_or_else(PoisonError::into_inner);
        if s.state == SlotState::Pending {
            s.state = SlotState::Empty;
        }
    }

    /// Drains every completed record into a [`TraceLog`] sorted by
    /// request id, resetting those slots to `Empty`. Pending (in-flight)
    /// slots are left untouched — drain after quiescing (or accept that
    /// in-flight requests land in the next drain).
    #[must_use]
    pub fn take_log(&self) -> TraceLog {
        let mut records = Vec::new();
        for cell in &self.slots {
            let mut s = cell.lock().unwrap_or_else(PoisonError::into_inner);
            if s.state == SlotState::Complete {
                records.push(TraceRecord {
                    function: s.function,
                    format: self.format,
                    id: s.id,
                    deadline_micros: s.deadline_micros,
                    conn: s.conn,
                    submit_micros: s.submit_micros,
                    operands: std::mem::take(&mut s.operands),
                    responses: std::mem::take(&mut s.responses),
                });
                s.state = SlotState::Empty;
            }
        }
        records.sort_by_key(|r| r.id);
        TraceLog { records }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper() -> QFormat {
        QFormat::new(4, 11).expect("paper format")
    }

    #[test]
    fn wide_formats_are_not_recordable() {
        assert!(Recorder::for_format(8, QFormat::new(4, 15).expect("q4.15")).is_none());
        assert!(Recorder::for_format(8, paper()).is_some());
    }

    #[test]
    fn begin_complete_drain_round_trips_sorted_by_id() {
        let r = Recorder::for_format(8, paper()).expect("16-bit");
        let b = r.begin(2, Function::Tanh, 0, 7, [4, 5]);
        let a = r.begin(1, Function::Sigmoid, 99, 0, [1, 2, 3]);
        assert!(r.complete(a, [10, 20, 30]));
        assert!(r.complete(b, [40, 50]));
        assert_eq!(r.captured(), 2);
        let log = r.take_log();
        assert_eq!(log.records.len(), 2);
        assert_eq!(log.records[0].id, 1);
        assert_eq!(log.records[0].function, Function::Sigmoid);
        assert_eq!(log.records[0].deadline_micros, 99);
        assert_eq!(log.records[0].conn, 0);
        assert_eq!(log.records[0].operands, vec![1, 2, 3]);
        assert_eq!(log.records[0].responses, vec![10, 20, 30]);
        assert_eq!(log.records[1].id, 2);
        assert_eq!(log.records[1].conn, 7, "conn id rides the record");
        // Id 2 was begun first, so its stamp is the earlier of the two.
        assert!(log.records[1].submit_micros <= log.records[0].submit_micros);
        // Drained slots are reusable; the log is empty until new work.
        assert!(r.take_log().records.is_empty());
        let c = r.begin(3, Function::Exp, 0, 0, [7]);
        assert_ne!(c, NO_RECORD_SLOT);
    }

    #[test]
    fn saturated_ring_drops_newest_and_counts() {
        let r = Recorder::for_format(2, paper()).expect("16-bit");
        let a = r.begin(1, Function::Sigmoid, 0, 0, [1]);
        let b = r.begin(2, Function::Sigmoid, 0, 0, [2]);
        assert_ne!(a, NO_RECORD_SLOT);
        assert_ne!(b, NO_RECORD_SLOT);
        // Both slots pending: the next two claims (wrapping over both
        // slots) are dropped, not recorded.
        assert_eq!(r.begin(3, Function::Sigmoid, 0, 0, [3]), NO_RECORD_SLOT);
        assert_eq!(r.begin(4, Function::Sigmoid, 0, 0, [4]), NO_RECORD_SLOT);
        // A declined claim is not yet a drop: the caller counts it once
        // the request is admitted.
        assert_eq!(r.dropped(), 0);
        r.count_dropped();
        r.count_dropped();
        assert_eq!(r.dropped(), 2);
        // Completing and draining frees the slots again.
        assert!(r.complete(a, [10]));
        assert!(r.complete(b, [20]));
        assert_eq!(r.take_log().records.len(), 2);
        assert_ne!(r.begin(5, Function::Sigmoid, 0, 0, [5]), NO_RECORD_SLOT);
    }

    #[test]
    fn abandon_frees_the_slot_without_a_record() {
        let r = Recorder::for_format(1, paper()).expect("16-bit");
        let a = r.begin(1, Function::Sigmoid, 0, 0, [1]);
        r.abandon(a);
        assert_eq!(r.captured(), 0);
        assert!(!r.complete(a, [9]), "abandoned slots reject late replies");
        assert!(r.take_log().records.is_empty());
        // The slot is reusable immediately.
        assert_ne!(r.begin(2, Function::Tanh, 0, 0, [2]), NO_RECORD_SLOT);
    }

    #[test]
    fn no_record_slot_is_inert() {
        let r = Recorder::for_format(1, paper()).expect("16-bit");
        assert!(!r.complete(NO_RECORD_SLOT, [1]));
        r.abandon(NO_RECORD_SLOT);
        assert!(r.take_log().records.is_empty());
    }
}
