//! Property-based integration tests: the full pipeline (generator → engine →
//! prefetcher → metrics) must uphold its invariants for arbitrary workload
//! parameters, not just the calibrated presets.

use proptest::prelude::*;
use stms::core::{Stms, StmsConfig};
use stms::mem::{CmpSimulator, NullPrefetcher, Recording, SimOptions, SimResult, SystemConfig};
use stms::prefetch::{
    FixedDepthConfig, IdealTms, IdealTmsConfig, MarkovConfig, MissTraceCollector,
};
use stms::sim::{ExperimentConfig, PrefetcherKind};
use stms::types::Trace;
use stms::workloads::{generate, presets, LengthDist, TraceGenerator, WorkloadClass, WorkloadSpec};

/// Builds an arbitrary (but small) workload specification.
fn arb_spec() -> impl Strategy<Value = WorkloadSpec> {
    (
        0.0f64..1.0,  // p_repeat
        0.0f64..0.6,  // p_noise
        0.0f64..0.9,  // hot_fraction
        0.0f64..1.0,  // p_dependent
        2u64..40,     // stream length median
        1u64..64,     // scan run
        any::<u64>(), // seed
    )
        .prop_map(
            |(p_repeat, p_noise, hot_fraction, p_dependent, median, scan_run, seed)| WorkloadSpec {
                name: "prop".into(),
                class: WorkloadClass::Web,
                cores: 2,
                accesses: 6_000,
                p_repeat,
                stream_len: LengthDist::pareto_with_median(median, median * 20, 1.2),
                max_pool_streams: 64,
                shared_pool: true,
                p_noise,
                scan_run,
                hot_fraction,
                hot_lines: 256,
                p_dependent,
                mean_gap: 6,
                p_divergence: 0.02,
                p_write: 0.1,
                seed,
            },
        )
}

fn system() -> SystemConfig {
    SystemConfig::tiny_for_tests()
}

fn options() -> SimOptions {
    SimOptions {
        warmup_fraction: 0.1,
        ..SimOptions::default()
    }
}

fn check_result_invariants(r: &SimResult) {
    let classified = r.l1_hits
        + r.l2_hits
        + r.covered_full
        + r.covered_partial
        + r.uncovered_misses
        + r.write_misses;
    assert_eq!(
        classified, r.accesses,
        "every access is classified exactly once"
    );
    assert!(r.coverage() >= 0.0 && r.coverage() <= 1.0);
    assert!(r.accuracy() >= 0.0 && r.accuracy() <= 1.0);
    assert!(r.mlp() >= 1.0);
    assert_eq!(r.prefetches_used, r.covered_full + r.covered_partial);
    assert!(r.prefetches_used <= r.prefetches_issued);
    assert!(r.instructions >= r.accesses);
    // Traffic sanity: every uncovered miss and every issued prefetch moved a
    // 64-byte line.
    assert!(r.traffic.demand_fill >= r.uncovered_misses * 64);
    assert!(r.traffic.prefetch_data >= r.prefetches_issued * 64);
}

/// Replays every prefetcher family and the miss collector on `trace`
/// twice: all of them against one shared [`Recording`], and each through
/// `run_stream` in `chunk_len`-access chunks. Both must agree exactly.
fn assert_shared_recording_matches_streamed(
    sys: &SystemConfig,
    opts: SimOptions,
    trace: &Trace,
    chunk_len: usize,
) {
    let kinds = [
        PrefetcherKind::Baseline,
        PrefetcherKind::ideal(),
        PrefetcherKind::Stms(StmsConfig {
            sampling_probability: 0.5,
            ..StmsConfig::scaled_default()
        }),
        PrefetcherKind::FixedDepth(FixedDepthConfig::default()),
        PrefetcherKind::Markov(MarkovConfig::default()),
    ];
    let recording = Recording::record(sys, trace);
    for kind in &kinds {
        let shared = CmpSimulator::new(sys, opts).run_recorded(
            trace,
            &recording,
            kind.build(sys.cores).as_mut(),
        );
        let streamed = CmpSimulator::new(sys, opts)
            .run_stream(&mut trace.chunks(chunk_len), kind.build(sys.cores).as_mut())
            .expect("in-memory sources cannot fail");
        assert_eq!(shared, streamed, "{}", kind.label());
        check_result_invariants(&shared);
    }
    let mut shared = MissTraceCollector::new(sys.cores);
    let _ = CmpSimulator::new(sys, opts).run_recorded(trace, &recording, &mut shared);
    let mut streamed = MissTraceCollector::new(sys.cores);
    CmpSimulator::new(sys, opts)
        .run_stream(&mut trace.chunks(chunk_len), &mut streamed)
        .expect("in-memory sources cannot fail");
    assert_eq!(shared.misses(), streamed.misses(), "miss collection");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Jobs replayed against one shared hierarchy recording match
    /// `run_stream`, which runs both halves chunk by chunk: for arbitrary
    /// workloads, a paper preset under a held-out seed, warm-up on and
    /// off, and arbitrary chunk lengths.
    #[test]
    fn shared_recording_replay_matches_streamed_replay(
        spec in arb_spec(),
        preset in 0usize..9,
        held_out_seed in any::<u64>(),
        warmup in any::<bool>(),
        chunk_len in 1usize..3_000,
    ) {
        let opts = SimOptions {
            warmup_fraction: if warmup { 0.2 } else { 0.0 },
            ..SimOptions::default()
        };
        assert_shared_recording_matches_streamed(&system(), opts, &generate(&spec), chunk_len);
        let paper = presets::all_presets()[preset]
            .clone()
            .with_seed(held_out_seed)
            .with_accesses(8_000);
        assert_shared_recording_matches_streamed(
            &ExperimentConfig::scaled_system(),
            opts,
            &generate(&paper),
            chunk_len,
        );
    }

    /// The engine's accounting identities hold for arbitrary workloads under
    /// the baseline, the idealized prefetcher and STMS.
    #[test]
    fn pipeline_invariants_hold_for_arbitrary_workloads(spec in arb_spec()) {
        let trace = generate(&spec);
        let sys = system();

        let baseline = CmpSimulator::new(&sys, options()).run(&trace, &mut NullPrefetcher::new());
        check_result_invariants(&baseline);
        prop_assert_eq!(baseline.prefetches_issued, 0);
        prop_assert_eq!(baseline.traffic.meta_total(), 0);

        let mut ideal = IdealTms::new(IdealTmsConfig { cores: sys.cores, ..Default::default() });
        let ideal_res = CmpSimulator::new(&sys, options()).run(&trace, &mut ideal);
        check_result_invariants(&ideal_res);
        prop_assert_eq!(ideal_res.traffic.meta_total(), 0, "idealized meta-data is on chip");

        let mut stms = Stms::new(StmsConfig {
            cores: sys.cores,
            sampling_probability: 0.25,
            ..StmsConfig::scaled_default()
        });
        let stms_res = CmpSimulator::new(&sys, options()).run(&trace, &mut stms);
        check_result_invariants(&stms_res);
        // STMS that issued any prefetch must have paid meta-data lookups.
        if stms_res.prefetches_issued > 0 {
            prop_assert!(stms_res.traffic.meta_lookup > 0);
        }
        // Both runs replay the same trace, so the baseline miss opportunity
        // is identical up to cache-warming second-order effects.
        let base_opportunity = baseline.base_read_misses() as f64;
        let stms_opportunity = stms_res.base_read_misses() as f64;
        if base_opportunity > 500.0 {
            prop_assert!((base_opportunity - stms_opportunity).abs() / base_opportunity < 0.25);
        }
    }

    /// Trace generation and simulation are fully deterministic in the seed.
    #[test]
    fn generation_and_simulation_are_deterministic(spec in arb_spec()) {
        let a = generate(&spec);
        let b = generate(&spec);
        prop_assert_eq!(&a, &b);
        let sys = system();
        let ra = CmpSimulator::new(&sys, options()).run(&a, &mut NullPrefetcher::new());
        let rb = CmpSimulator::new(&sys, options()).run(&b, &mut NullPrefetcher::new());
        prop_assert_eq!(ra, rb);
    }

    /// The binary trace codec round-trips arbitrary generated traces.
    #[test]
    fn trace_codec_round_trips_generated_traces(spec in arb_spec()) {
        let trace = generate(&spec);
        let decoded = stms::types::Trace::decode(&trace.encode()).expect("decode");
        prop_assert_eq!(decoded, trace);
    }

    /// The chunk-framed codec round-trips arbitrary traces under arbitrary
    /// chunk lengths.
    #[test]
    fn chunked_codecs_round_trip_for_arbitrary_chunk_lengths(
        spec in arb_spec(),
        chunk_len in 1usize..700,
    ) {
        use stms::types::stream::{decode_chunked, encode_chunked};
        use stms::types::Fingerprint;
        let trace = generate(&spec);
        let key = Fingerprint::from_raw(0xfeed);
        let sealed = encode_chunked(&trace, key, chunk_len);
        let decoded = decode_chunked(&sealed, key).expect("chunked decode");
        prop_assert_eq!(&decoded, &trace);
    }

    /// Streamed chunk-by-chunk replay is bit-identical to the materialized
    /// replay for arbitrary workloads and chunkings, whether the chunks
    /// come from the materialized trace or straight from the generator.
    #[test]
    fn streamed_replay_matches_materialized_for_arbitrary_workloads(
        spec in arb_spec(),
        chunk_len in 16usize..500,
    ) {
        let trace = generate(&spec);
        let sys = system();
        let materialized =
            CmpSimulator::new(&sys, options()).run(&trace, &mut NullPrefetcher::new());
        let chunked = CmpSimulator::new(&sys, options())
            .run_stream(&mut trace.chunks(chunk_len), &mut NullPrefetcher::new())
            .expect("in-memory sources cannot fail");
        prop_assert_eq!(&chunked, &materialized);
        let mut generator = TraceGenerator::new(&spec).with_chunk_len(chunk_len);
        let generated = CmpSimulator::new(&sys, options())
            .run_stream(&mut generator, &mut NullPrefetcher::new())
            .expect("generators cannot fail");
        prop_assert_eq!(&generated, &materialized);
    }

    /// A single corrupted byte anywhere in a sealed chunk stream must fail
    /// closed — never decode to different accesses.
    #[test]
    fn corrupt_chunk_streams_fail_closed(
        spec in arb_spec(),
        offset_seed in any::<u64>(),
    ) {
        use stms::types::stream::{decode_chunked, encode_chunked};
        use stms::types::Fingerprint;
        let trace = generate(&spec);
        let key = Fingerprint::from_raw(0xdead);
        let mut garbled = encode_chunked(&trace, key, 128);
        let offset = (offset_seed as usize) % garbled.len();
        garbled[offset] ^= 0x01;
        match decode_chunked(&garbled, key) {
            Err(_) => {}
            // The flip may land in dead padding only if decode reproduces
            // the original exactly; anything else is silent corruption.
            Ok(decoded) => prop_assert_eq!(&decoded, &trace),
        }
    }
}
