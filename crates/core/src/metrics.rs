//! Throughput accounting, as used for the paper's Table 2.
//!
//! The evaluation measures, for every device, the number of items processed
//! over a five-minute window and derives the device's average throughput and
//! its share of the total. [`ThroughputMeter`] collects those counts during a
//! run; [`ThroughputReport`] renders them.
//!
//! The counters sit on the reactor's per-result and per-frame path, so they
//! take no lock and allocate nothing there. Each device name is interned
//! once ([`ThroughputMeter::device`], called when a volunteer registers)
//! into a [`DeviceMeter`]: a shared set of atomic counters the volunteer's
//! driver updates directly. Lender shards get the same treatment
//! ([`ThroughputMeter::shard`] → [`ShardMeter`]). The meter only walks the
//! interned counters when a snapshot is taken ([`ThroughputMeter::report`]).

use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Collects per-device completion counts during a run.
#[derive(Debug, Clone)]
pub struct ThroughputMeter {
    inner: Arc<MeterInner>,
}

#[derive(Debug)]
struct MeterInner {
    started_at: Instant,
    /// Interned device counters by name. Locked only to intern a device and
    /// to take a report; one name always maps to one set of counters, so a
    /// volunteer that registers again (a resumed session) shares its row.
    devices: Mutex<BTreeMap<String, DeviceMeter>>,
    /// Interned shard counters; index `i` is shard `i`.
    shards: Mutex<Vec<ShardMeter>>,
    scheduler: Mutex<Option<SchedulerCounters>>,
}

/// Work-conservation counters of the reactor scheduler: how many driver
/// polls ran, how many of them made no progress, and how the bounded
/// starved-kick budget split wakes between sent and suppressed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SchedulerCounters {
    /// Driver polls executed by the reactor.
    pub polls: u64,
    /// Polls that returned `Pending` without making any progress (no frame
    /// received, nothing dispatched): the direct cost of over-waking.
    pub wasted_polls: u64,
    /// Starved drivers actually woken by `kick_starved`.
    pub kicks_sent: u64,
    /// Starved drivers left parked because the kick budget (the shard's
    /// lendable depth) was already covered.
    pub kicks_suppressed: u64,
}

/// Lock-free counters of one device, interned by
/// [`ThroughputMeter::device`]. Clones share the counters, so every
/// registration under one name feeds one report row.
#[derive(Debug, Clone, Default)]
pub struct DeviceMeter {
    counters: Arc<DeviceCounters>,
}

#[derive(Debug, Default)]
struct DeviceCounters {
    tasks: AtomicU64,
    /// Table units as `f64` bits (added with a compare-and-swap loop).
    units: AtomicU64,
    wire_bytes: AtomicU64,
    wire_frames: AtomicU64,
    heartbeats_sent: AtomicU64,
    heartbeats_suppressed: AtomicU64,
}

impl DeviceMeter {
    /// Records that the device completed one task worth `units` table units.
    pub fn record(&self, units: f64) {
        let counters = &self.counters;
        counters.tasks.fetch_add(1, Ordering::Relaxed);
        let _ = counters.units.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
            Some((f64::from_bits(bits) + units).to_bits())
        });
    }

    /// Records that one wire frame of `bytes` payload bytes travelled on the
    /// device's channel (either direction). Together with the task count
    /// this exposes the protocol overhead per task: batching drives the
    /// frames-per-task ratio below one.
    pub fn record_wire(&self, bytes: u64) {
        self.counters.wire_bytes.fetch_add(bytes, Ordering::Relaxed);
        self.counters.wire_frames.fetch_add(1, Ordering::Relaxed);
    }

    /// Records the fate of one heartbeat slot on the device's channel: a
    /// standalone control frame actually sent, or one suppressed because data
    /// traffic within the heartbeat interval already proved liveness.
    pub fn record_heartbeat(&self, suppressed: bool) {
        let counter = if suppressed {
            &self.counters.heartbeats_suppressed
        } else {
            &self.counters.heartbeats_sent
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// The device's report group: 0 once it completed a task; otherwise 1,
    /// 2 or 3 if it sent wire frames, sent heartbeats or suppressed
    /// heartbeats; `None` before any activity.
    fn group(&self) -> Option<u8> {
        let counters = &self.counters;
        [
            &counters.tasks,
            &counters.wire_frames,
            &counters.heartbeats_sent,
            &counters.heartbeats_suppressed,
        ]
        .iter()
        .position(|count| count.load(Ordering::Relaxed) > 0)
        .map(|group| group as u8)
    }

    fn row(&self, device: &str, elapsed: Duration) -> DeviceThroughput {
        let counters = &self.counters;
        let units = f64::from_bits(counters.units.load(Ordering::Relaxed));
        DeviceThroughput {
            device: device.to_string(),
            tasks: counters.tasks.load(Ordering::Relaxed),
            units,
            throughput: units / elapsed.as_secs_f64().max(1e-9),
            wire_bytes: counters.wire_bytes.load(Ordering::Relaxed),
            wire_frames: counters.wire_frames.load(Ordering::Relaxed),
            heartbeats_sent: counters.heartbeats_sent.load(Ordering::Relaxed),
            heartbeats_suppressed: counters.heartbeats_suppressed.load(Ordering::Relaxed),
        }
    }
}

/// Lock-free dispatch counters and last-observed gauges of one lender
/// shard, interned by [`ThroughputMeter::shard`].
#[derive(Debug, Clone, Default)]
pub struct ShardMeter {
    counters: Arc<ShardCounters>,
}

#[derive(Debug, Default)]
struct ShardCounters {
    borrows: AtomicU64,
    results: AtomicU64,
    depth: AtomicU64,
    in_flight: AtomicU64,
    /// Set by [`ThroughputMeter::observe_shard`]: an observed shard gets a
    /// report row even before it dispatched anything.
    observed: AtomicBool,
}

impl ShardMeter {
    /// Records that `n` values were borrowed from the shard and dispatched
    /// towards a volunteer (including re-lends after crashes).
    pub fn record_borrows(&self, n: u64) {
        self.counters.borrows.fetch_add(n, Ordering::Relaxed);
    }

    /// Records that `n` results returned by volunteers were accepted by the
    /// shard.
    pub fn record_results(&self, n: u64) {
        self.counters.results.fetch_add(n, Ordering::Relaxed);
    }

    /// The shard's report row, if it saw dispatch activity or an
    /// observation.
    fn row(&self, shard: usize) -> Option<ShardThroughput> {
        let counters = &self.counters;
        let row = ShardThroughput {
            shard,
            borrows: counters.borrows.load(Ordering::Relaxed),
            results: counters.results.load(Ordering::Relaxed),
            depth: counters.depth.load(Ordering::Relaxed),
            in_flight: counters.in_flight.load(Ordering::Relaxed),
        };
        let active = row.borrows > 0 || row.results > 0;
        (active || counters.observed.load(Ordering::Relaxed)).then_some(row)
    }
}

impl ThroughputMeter {
    /// Creates a meter whose window starts now.
    pub fn new() -> Self {
        Self {
            inner: Arc::new(MeterInner {
                started_at: Instant::now(),
                devices: Mutex::new(BTreeMap::new()),
                shards: Mutex::new(Vec::new()),
                scheduler: Mutex::new(None),
            }),
        }
    }

    /// Interns `device` and returns its counters. The one locked,
    /// allocating step of a device's accounting: call it once per
    /// registration and record through the returned handle. Interning the
    /// same name again returns the same counters.
    pub fn device(&self, device: &str) -> DeviceMeter {
        let mut devices = self.inner.devices.lock();
        if let Some(meter) = devices.get(device) {
            return meter.clone();
        }
        let meter = DeviceMeter::default();
        devices.insert(device.to_string(), meter.clone());
        meter
    }

    /// Interns lender shard `shard` and returns its counters (locked; call
    /// it when a driver binds to a shard, not per borrow).
    pub fn shard(&self, shard: usize) -> ShardMeter {
        let mut shards = self.inner.shards.lock();
        if shards.len() <= shard {
            shards.resize_with(shard + 1, ShardMeter::default);
        }
        shards[shard].clone()
    }

    /// Records a point-in-time observation of shard `shard`'s queues:
    /// `depth` values staged or awaiting re-lend and `in_flight` values
    /// borrowed but not yet answered. Gauges, overwritten on every call.
    pub fn observe_shard(&self, shard: usize, depth: u64, in_flight: u64) {
        let counters = self.shard(shard).counters;
        counters.depth.store(depth, Ordering::Relaxed);
        counters.in_flight.store(in_flight, Ordering::Relaxed);
        counters.observed.store(true, Ordering::Relaxed);
    }

    /// Records a point-in-time observation of the reactor scheduler's
    /// work-conservation counters. A gauge set, overwritten on every call;
    /// a deployment that never wired a volunteer never feeds it.
    pub fn observe_scheduler(&self, counters: SchedulerCounters) {
        *self.inner.scheduler.lock() = Some(counters);
    }

    /// Renders the counts observed so far into a report.
    ///
    /// Rows list the devices that completed a task, sorted by name, then the
    /// devices that only produced traffic: those with wire frames, then
    /// those with sent heartbeats, then those with suppressed heartbeats,
    /// each group sorted by name. A device interned but never recorded has
    /// no row.
    pub fn report(&self) -> ThroughputReport {
        let elapsed = self.inner.started_at.elapsed();
        let devices = self.inner.devices.lock();
        // Read once, so a device recording concurrently cannot move between
        // the passes below.
        let groups: Vec<Option<u8>> = devices.values().map(DeviceMeter::group).collect();
        let mut rows = Vec::with_capacity(groups.iter().flatten().count());
        for group in 0..4 {
            for ((device, meter), _) in
                devices.iter().zip(&groups).filter(|(_, of)| **of == Some(group))
            {
                rows.push(meter.row(device, elapsed));
            }
        }
        drop(devices);
        let shards = self
            .inner
            .shards
            .lock()
            .iter()
            .enumerate()
            .filter_map(|(shard, meter)| meter.row(shard))
            .collect();
        ThroughputReport { elapsed, rows, shards, scheduler: *self.inner.scheduler.lock() }
    }
}

impl Default for ThroughputMeter {
    fn default() -> Self {
        Self::new()
    }
}

/// Throughput of one device over the measurement window.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceThroughput {
    /// Device identifier.
    pub device: String,
    /// Number of tasks completed.
    pub tasks: u64,
    /// Number of table units completed (tasks × units per task).
    pub units: f64,
    /// Average throughput in units per second.
    pub throughput: f64,
    /// Payload bytes that travelled on this device's channel.
    pub wire_bytes: u64,
    /// Wire frames that carried those bytes (batching lowers frames/task).
    pub wire_frames: u64,
    /// Standalone heartbeat control frames actually sent on this channel.
    pub heartbeats_sent: u64,
    /// Heartbeats suppressed because a data frame within the interval
    /// already proved liveness (piggybacked heartbeats).
    pub heartbeats_suppressed: u64,
}

/// Dispatch activity of one lender shard: how many borrows and results its
/// lock served, plus the last observed queue gauges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardThroughput {
    /// Shard index.
    pub shard: usize,
    /// Values borrowed from this shard and dispatched (incl. re-lends).
    pub borrows: u64,
    /// Results accepted by this shard.
    pub results: u64,
    /// Last observed number of values staged or awaiting re-lend.
    pub depth: u64,
    /// Last observed number of values borrowed but not yet answered.
    pub in_flight: u64,
}

/// The per-device throughput rows of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct ThroughputReport {
    /// Length of the measurement window.
    pub elapsed: Duration,
    /// One row per device that completed at least one task.
    pub rows: Vec<DeviceThroughput>,
    /// One row per lender shard that saw dispatch activity (empty when the
    /// deployment never fed shard counters, e.g. a bare meter).
    pub shards: Vec<ShardThroughput>,
    /// Reactor work-conservation counters, if the deployment observed them
    /// (`None` before the first volunteer is wired and on bare meters).
    pub scheduler: Option<SchedulerCounters>,
}

impl ThroughputReport {
    /// Total throughput across devices, in units per second.
    pub fn total_throughput(&self) -> f64 {
        self.rows.iter().map(|r| r.throughput).sum()
    }

    /// Total number of units completed across devices.
    pub fn total_units(&self) -> f64 {
        self.rows.iter().map(|r| r.units).sum()
    }

    /// Total payload bytes on the wire across devices.
    pub fn total_wire_bytes(&self) -> u64 {
        self.rows.iter().map(|r| r.wire_bytes).sum()
    }

    /// Total wire frames across devices.
    pub fn total_wire_frames(&self) -> u64 {
        self.rows.iter().map(|r| r.wire_frames).sum()
    }

    /// Total standalone heartbeats sent across devices.
    pub fn total_heartbeats_sent(&self) -> u64 {
        self.rows.iter().map(|r| r.heartbeats_sent).sum()
    }

    /// Total heartbeats suppressed by piggybacking across devices.
    pub fn total_heartbeats_suppressed(&self) -> u64 {
        self.rows.iter().map(|r| r.heartbeats_suppressed).sum()
    }

    /// The share (in percent) of the total contributed by `device`, as in the
    /// `%` columns of Table 2.
    pub fn share(&self, device: &str) -> Option<f64> {
        let total = self.total_units();
        if total <= 0.0 {
            return None;
        }
        self.rows.iter().find(|r| r.device == device).map(|r| 100.0 * r.units / total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_meter_reports_nothing() {
        let meter = ThroughputMeter::new();
        let report = meter.report();
        assert!(report.rows.is_empty());
        assert_eq!(report.total_units(), 0.0);
        assert_eq!(report.share("phone"), None);
        assert_eq!(report.scheduler, None);
    }

    #[test]
    fn scheduler_counters_are_a_gauge_set() {
        let meter = ThroughputMeter::new();
        meter.observe_scheduler(SchedulerCounters {
            polls: 10,
            wasted_polls: 4,
            kicks_sent: 3,
            kicks_suppressed: 7,
        });
        // A later observation overwrites, never accumulates.
        meter.observe_scheduler(SchedulerCounters {
            polls: 25,
            wasted_polls: 6,
            kicks_sent: 9,
            kicks_suppressed: 11,
        });
        let scheduler = meter.report().scheduler.unwrap();
        assert_eq!(scheduler.polls, 25);
        assert_eq!(scheduler.wasted_polls, 6);
        assert_eq!(scheduler.kicks_sent, 9);
        assert_eq!(scheduler.kicks_suppressed, 11);
    }

    #[test]
    fn counts_accumulate_per_device() {
        let meter = ThroughputMeter::new();
        meter.device("tablet").record(1.0);
        meter.device("tablet").record(1.0);
        meter.device("phone").record(1.0);
        let report = meter.report();
        assert_eq!(report.rows.len(), 2);
        let tablet = report.rows.iter().find(|r| r.device == "tablet").unwrap();
        assert_eq!(tablet.tasks, 2);
        assert_eq!(report.total_units(), 3.0);
        assert!((report.share("tablet").unwrap() - 66.666).abs() < 0.01);
        assert!((report.share("phone").unwrap() - 33.333).abs() < 0.01);
    }

    #[test]
    fn units_scale_throughput() {
        let meter = ThroughputMeter::new();
        let miner = meter.device("miner");
        miner.record(2_000.0);
        miner.record(2_000.0);
        std::thread::sleep(Duration::from_millis(20));
        let report = meter.report();
        assert_eq!(report.rows[0].units, 4_000.0);
        assert!(report.rows[0].throughput > 0.0);
        assert!(report.total_throughput() > 0.0);
        assert!(report.elapsed >= Duration::from_millis(20));
    }

    #[test]
    fn wire_counters_accumulate_per_device() {
        let meter = ThroughputMeter::new();
        let tablet = meter.device("tablet");
        tablet.record(1.0);
        tablet.record_wire(120);
        tablet.record_wire(60);
        // A device that only produced traffic so far still gets a row.
        meter.device("phone").record_wire(40);
        let report = meter.report();
        assert_eq!(report.rows.len(), 2);
        let tablet = report.rows.iter().find(|r| r.device == "tablet").unwrap();
        assert_eq!((tablet.wire_bytes, tablet.wire_frames), (180, 2));
        let phone = report.rows.iter().find(|r| r.device == "phone").unwrap();
        assert_eq!((phone.tasks, phone.wire_bytes), (0, 40));
        assert_eq!(report.total_wire_bytes(), 220);
        assert_eq!(report.total_wire_frames(), 3);
    }

    #[test]
    fn heartbeat_counters_accumulate_per_device() {
        let meter = ThroughputMeter::new();
        let tablet = meter.device("tablet");
        tablet.record_heartbeat(false);
        tablet.record_heartbeat(true);
        tablet.record_heartbeat(true);
        // A device with only suppressed heartbeats still gets a row.
        meter.device("phone").record_heartbeat(true);
        let report = meter.report();
        let tablet = report.rows.iter().find(|r| r.device == "tablet").unwrap();
        assert_eq!((tablet.heartbeats_sent, tablet.heartbeats_suppressed), (1, 2));
        let phone = report.rows.iter().find(|r| r.device == "phone").unwrap();
        assert_eq!((phone.heartbeats_sent, phone.heartbeats_suppressed), (0, 1));
        assert_eq!(report.total_heartbeats_sent(), 1);
        assert_eq!(report.total_heartbeats_suppressed(), 3);
    }

    #[test]
    fn shard_counters_accumulate_and_gauges_overwrite() {
        let meter = ThroughputMeter::new();
        meter.shard(0).record_borrows(4);
        meter.shard(0).record_borrows(2);
        meter.shard(0).record_results(5);
        meter.shard(2).record_borrows(1);
        meter.observe_shard(0, 3, 1);
        meter.observe_shard(0, 0, 2);
        let report = meter.report();
        assert_eq!(report.shards.len(), 2);
        let shard0 = report.shards.iter().find(|s| s.shard == 0).unwrap();
        assert_eq!((shard0.borrows, shard0.results), (6, 5));
        assert_eq!((shard0.depth, shard0.in_flight), (0, 2), "gauges keep the last observation");
        let shard2 = report.shards.iter().find(|s| s.shard == 2).unwrap();
        assert_eq!((shard2.borrows, shard2.results), (1, 0));
        // A meter that never saw shard traffic reports no shard rows.
        assert!(ThroughputMeter::new().report().shards.is_empty());
    }

    #[test]
    fn meter_is_shared_between_clones() {
        let meter = ThroughputMeter::new();
        let clone = meter.clone();
        clone.device("a").record(1.0);
        assert_eq!(meter.report().rows.len(), 1);
    }

    #[test]
    fn an_interned_device_without_activity_has_no_row() {
        let meter = ThroughputMeter::new();
        let _idle = meter.device("idle");
        let _untouched = meter.shard(1);
        let report = meter.report();
        assert!(report.rows.is_empty());
        assert!(report.shards.is_empty());
    }

    #[test]
    fn threads_recording_through_interned_handles_sum_exactly() {
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 10_000;
        let meter = ThroughputMeter::new();
        let workers: Vec<_> = (0..THREADS)
            .map(|i| {
                // Half the threads share one device, as drivers of one
                // resumed volunteer would; each also feeds its own.
                let shared = meter.device("shared");
                let own = meter.device(&format!("own-{i}"));
                let shard = meter.shard((i % 2) as usize);
                std::thread::spawn(move || {
                    for _ in 0..PER_THREAD {
                        shared.record(1.0);
                        shared.record_wire(3);
                        shared.record_heartbeat(i % 2 == 0);
                        own.record(0.5);
                        shard.record_borrows(2);
                        shard.record_results(1);
                    }
                })
            })
            .collect();
        for worker in workers {
            worker.join().unwrap();
        }
        let report = meter.report();
        let shared = report.rows.iter().find(|r| r.device == "shared").unwrap();
        assert_eq!(shared.tasks, THREADS * PER_THREAD);
        assert_eq!(shared.units, (THREADS * PER_THREAD) as f64);
        assert_eq!(
            (shared.wire_bytes, shared.wire_frames),
            (3 * THREADS * PER_THREAD, THREADS * PER_THREAD)
        );
        assert_eq!(shared.heartbeats_sent + shared.heartbeats_suppressed, THREADS * PER_THREAD);
        assert_eq!(shared.heartbeats_suppressed, THREADS / 2 * PER_THREAD);
        for i in 0..THREADS {
            let own = report.rows.iter().find(|r| r.device == format!("own-{i}")).unwrap();
            assert_eq!((own.tasks, own.units), (PER_THREAD, PER_THREAD as f64 / 2.0));
        }
        assert_eq!(report.shards.len(), 2);
        for row in &report.shards {
            assert_eq!(
                (row.borrows, row.results),
                (THREADS / 2 * PER_THREAD * 2, THREADS / 2 * PER_THREAD)
            );
        }
    }

    #[test]
    fn rows_list_completers_by_name_then_traffic_only_devices() {
        let meter = ThroughputMeter::new();
        // Interned out of order; activity decides the group, the name the
        // position within it.
        meter.device("zeta").record_heartbeat(true);
        meter.device("yak").record_heartbeat(false);
        meter.device("omega").record(1.0);
        meter.device("beta").record_wire(10);
        meter.device("alpha").record(1.0);
        meter.device("gamma").record_heartbeat(true);
        meter.device("delta").record_wire(10);
        meter.device("delta").record_heartbeat(false);
        let _silent = meter.device("silent");
        let order: Vec<String> = meter.report().rows.into_iter().map(|r| r.device).collect();
        assert_eq!(order, ["alpha", "omega", "beta", "delta", "yak", "gamma", "zeta"]);
    }

    #[test]
    fn a_device_registered_twice_under_one_name_shares_one_row() {
        let meter = ThroughputMeter::new();
        // A resumed session registers its volunteer again under the old
        // name: both registrations feed one row.
        let first = meter.device("tablet");
        first.record(1.0);
        first.record_wire(100);
        let second = meter.device("tablet");
        second.record(1.0);
        second.record_heartbeat(false);
        let report = meter.report();
        assert_eq!(report.rows.len(), 1);
        let row = &report.rows[0];
        assert_eq!(row.device, "tablet");
        assert_eq!(
            (row.tasks, row.wire_bytes, row.wire_frames, row.heartbeats_sent),
            (2, 100, 1, 1)
        );
    }
}
