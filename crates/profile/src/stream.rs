//! Record sinks: where the phase scheduler streams its records.
//!
//! The phase scheduler (`mp-runtime`) emits one [`PhaseRecord`] per
//! executed phase. A [`RecordSink`] receives them as they happen: a
//! [`crate::Profiler`] keeps them for one run, a [`NullSink`] drops them.

use crate::phase::PhaseRecord;

/// A consumer of phase records, fed live by the phase scheduler.
pub trait RecordSink: Sync {
    /// Whether the sink wants records at all. Schedulers may skip the timing
    /// overhead entirely when this returns `false`.
    fn is_live(&self) -> bool {
        true
    }

    /// Receive one completed phase record.
    fn record(&self, record: PhaseRecord);
}

/// A sink that drops everything (uninstrumented runs).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl RecordSink for NullSink {
    fn is_live(&self) -> bool {
        false
    }

    fn record(&self, _record: PhaseRecord) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase::PhaseKind;
    use crate::profiler::Profiler;

    #[test]
    fn null_sink_is_dead_and_profiler_is_live() {
        assert!(!NullSink.is_live());
        let profiler = Profiler::new("live", 2);
        assert!(profiler.is_live());
        profiler.record(PhaseRecord::new(PhaseKind::Parallel, "p", 1.0, 2));
        assert_eq!(profiler.finish().records.len(), 1);
    }
}
