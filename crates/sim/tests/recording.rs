//! The per-trace hierarchy recording: its size budget, and one shared
//! recording per stored trace.

use std::sync::Arc;
use stms_mem::Recording;
use stms_sim::campaign::{JobPool, TraceStore};
use stms_sim::ExperimentConfig;
use stms_workloads::{generate, presets};

/// The recording of every paper preset at the benchmark's trace length
/// stays within 8 bytes per access, so holding one per trace costs less
/// than the traces themselves.
#[test]
fn paper_recordings_fit_the_size_budget() {
    const ACCESSES: usize = 100_000;
    let cfg = ExperimentConfig::scaled().with_accesses(ACCESSES);
    for spec in presets::all_presets() {
        let trace = generate(&spec.clone().with_accesses(ACCESSES));
        let recording = Recording::record(&cfg.system, &trace);
        assert_eq!(recording.accesses(), ACCESSES as u64);
        let per_access = recording.bytes_per_access();
        assert!(
            per_access <= 8.0,
            "{}: {per_access:.2} B/access is over the 8 B budget",
            spec.name
        );
    }
}

#[test]
fn concurrent_replays_of_one_trace_share_one_recording() {
    const ACCESSES: usize = 6_000;
    let cfg = ExperimentConfig::quick().with_accesses(ACCESSES);
    let store = Arc::new(TraceStore::new());
    let pool = JobPool::new(4);
    let tasks: Vec<_> = (0..8)
        .map(|_| {
            let store = Arc::clone(&store);
            let system = cfg.system.clone();
            move || store.get_or_record(&presets::oltp_db2(), ACCESSES, &system)
        })
        .collect();
    let shared: Vec<_> = pool
        .run_batch(tasks)
        .into_iter()
        .map(|r| r.expect("recording never panics"))
        .collect();
    for (trace, recording) in &shared[1..] {
        assert!(Arc::ptr_eq(trace, &shared[0].0));
        assert!(Arc::ptr_eq(recording, &shared[0].1));
    }
    assert_eq!(*shared[0].1, Recording::record(&cfg.system, &shared[0].0));
    let stats = store.stats();
    assert_eq!((stats.generated, stats.recorded), (1, 1));

    // Plain trace requests never record.
    store.get_or_generate(&presets::web_apache(), ACCESSES);
    assert_eq!(store.stats().recorded, 1);
}
