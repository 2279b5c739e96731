//! The lender probe: values lent, answered and emitted through the public
//! `StreamLender` API alone, with no transport or reactor in between.

use pando_pull_stream::lender::StreamLender;
use pando_pull_stream::source::{count, SourceExt};
use std::time::Instant;

/// Nanoseconds per value for lend → `push_result` → ordered emit, with
/// `substreams` sub-streams each answering on its own thread.
pub fn lender_roundtrip_ns(substreams: usize, values: u64) -> f64 {
    let lender: StreamLender<u64, u64> = StreamLender::new(count(values));
    let start = Instant::now();
    let emitted = std::thread::scope(|scope| {
        for _ in 0..substreams {
            let mut sub = lender.lend();
            scope.spawn(move || {
                while let Some(task) = sub.next_task() {
                    sub.push_result(task.seq, task.value).expect("the lender accepts results");
                }
                sub.complete();
            });
        }
        lender.output().drain_all().expect("the probe stream completes")
    });
    assert_eq!(emitted as u64, values, "the probe emits every value once");
    start.elapsed().as_nanos() as f64 / values as f64
}
