//! Golden digests: absolute pins on the numbers this reproduction produces.
//!
//! Every other test compares one path with another, so a change that shifts
//! every path equally would pass them all. These constants pin the encoded
//! `SimResult` of every (preset workload × prefetcher family) pair and the
//! rendered text of every figure at a small trace length. A deliberate model
//! change updates them in the same commit; anything else that moves them is
//! a regression.
//!
//! On a mismatch the failure message lists every actual digest, ready to be
//! pasted back after the change has been reviewed.

use stms::core::StmsConfig;
use stms::prefetch::{FixedDepthConfig, MarkovConfig};
use stms::sim::experiments::all_plans;
use stms::sim::{
    build_trace, run_trace, Campaign, ExperimentConfig, PrefetcherKind, MODEL_VERSION,
};
use stms::types::{Fingerprint, Fingerprinter};
use stms::workloads::presets;

const ACCESSES: usize = 20_000;

/// `(workload, prefetcher label, digest of SimResult::encode())`.
#[rustfmt::skip]
const SIM_RESULT_DIGESTS: &[(&str, &str, &str)] = &[
    ("Web Apache", "baseline", "78244d6e4cceeb42cf980c8e066b9f53"),
    ("Web Apache", "ideal-tms", "019c7fe7472ce294e49c6775d4c9ce31"),
    ("Web Apache", "stms(p=0.125)", "b0109398c8d09d5077b171beccf34f4f"),
    ("Web Apache", "fixed-depth(6)", "f02ec4ab815f4455aec55bfaa18b77b6"),
    ("Web Apache", "markov(65536 entries, 2 succ)", "1c8508986f8fde9bc54a123a3dc3d7aa"),
    ("Web Zeus", "baseline", "e6ce208bedf081827c99123c391f3d10"),
    ("Web Zeus", "ideal-tms", "7e6f93b1a90bcd989eb0a12593ebeb2e"),
    ("Web Zeus", "stms(p=0.125)", "41c69fcf72422886eaf2fd95300fc467"),
    ("Web Zeus", "fixed-depth(6)", "0c9a8b8e81628645335f2f7b36edf7c1"),
    ("Web Zeus", "markov(65536 entries, 2 succ)", "c9796691476ba184c81aa57c2343c479"),
    ("OLTP DB2", "baseline", "68e9f483e854746ef0b4417a350ca472"),
    ("OLTP DB2", "ideal-tms", "ed0f787a4ca07c8c2a65bcbb6c67ba10"),
    ("OLTP DB2", "stms(p=0.125)", "8fc1f37af3e484208f5e466b9d8bdc4a"),
    ("OLTP DB2", "fixed-depth(6)", "4afe11b9ece3fa9c46f4482e9f0200a1"),
    ("OLTP DB2", "markov(65536 entries, 2 succ)", "a534ac19325e3a2804e36615b0691cef"),
    ("OLTP Oracle", "baseline", "26a8eddf019a3f6f3c0840b7786fec9a"),
    ("OLTP Oracle", "ideal-tms", "72e5e52311d6ecf4172e59b1c120f00c"),
    ("OLTP Oracle", "stms(p=0.125)", "964fbd5c168c8f95cfbd664cf700f09e"),
    ("OLTP Oracle", "fixed-depth(6)", "df6252ca019509e9314d9ae149e3bdb0"),
    ("OLTP Oracle", "markov(65536 entries, 2 succ)", "1144552ba2d8ccde2b5b54664d3943e9"),
    ("DSS DB2 Qry2", "baseline", "89d47942a11045cadff91aba148042fc"),
    ("DSS DB2 Qry2", "ideal-tms", "d1705eac96e535ea86cbb66744e8569c"),
    ("DSS DB2 Qry2", "stms(p=0.125)", "a5410f68988f50ddded90636e22de037"),
    ("DSS DB2 Qry2", "fixed-depth(6)", "5f1ccdc39223ed949488f0fff7b449c9"),
    ("DSS DB2 Qry2", "markov(65536 entries, 2 succ)", "a5b8f9adf32792b77f6a6913100b8e25"),
    ("DSS DB2", "baseline", "5ac236b68f146865742c3bc7d32da287"),
    ("DSS DB2", "ideal-tms", "32711a08fa0cb012cd5623cf0909ecab"),
    ("DSS DB2", "stms(p=0.125)", "d41bc44b3307a31a716816d22590a249"),
    ("DSS DB2", "fixed-depth(6)", "6a421e797269339848b7aefc0d34bdf7"),
    ("DSS DB2", "markov(65536 entries, 2 succ)", "c5dc36e7e2650686a2aba6c09a24a199"),
    ("Sci em3d", "baseline", "053f0bbe67d22f8dd77337c7b26cbd3b"),
    ("Sci em3d", "ideal-tms", "933145a247680d72d4a66ed99d64e8fb"),
    ("Sci em3d", "stms(p=0.125)", "e0cc5fb2bc2878cc8dce96bf7135df2e"),
    ("Sci em3d", "fixed-depth(6)", "a6e10e429c142f2c9f490dc2bede635a"),
    ("Sci em3d", "markov(65536 entries, 2 succ)", "dfc1471c99f71bebf9ea9fc678ae893d"),
    ("Sci moldyn", "baseline", "600985d9a00481b363d531d6778a16ec"),
    ("Sci moldyn", "ideal-tms", "f5ab431c56800a74be67170c04c22fb2"),
    ("Sci moldyn", "stms(p=0.125)", "d60bb4eb074858ca7a721802fd33118c"),
    ("Sci moldyn", "fixed-depth(6)", "e7e96ea6b9bcd17f5eb02689d9252a2c"),
    ("Sci moldyn", "markov(65536 entries, 2 succ)", "a8c27de3aa34a4ea2ef58f352269ff41"),
    ("Sci ocean", "baseline", "84c4470162f9e30271fa4d39cd33ca2b"),
    ("Sci ocean", "ideal-tms", "c5b4e6aff4c8a6705cce02f4204ce77a"),
    ("Sci ocean", "stms(p=0.125)", "36246e707316ca0d2fc768c2d1a4e0ce"),
    ("Sci ocean", "fixed-depth(6)", "6a040b3921485becb0778145190ca363"),
    ("Sci ocean", "markov(65536 entries, 2 succ)", "1b6d024feaf7bd7f31cf89e62eb225d4"),
];

/// Digest of `--figures all --quick --accesses 20000` stdout.
const FIGURES_ALL_DIGEST: &str = "fefb96f435bdb028d24f7e6943658701";

/// The `MODEL_VERSION` the digests above belong to, and a digest of the
/// two tables. Changing a digest without bumping the version fails
/// `digests_are_pinned_to_the_model_version`; a deliberate model change
/// bumps `MODEL_VERSION` and updates both entries here.
const DIGESTS_OF_MODEL: (u32, &str) = (1, "a5e08ca46b00bac5d67856052fdc8e11");

fn cfg() -> ExperimentConfig {
    ExperimentConfig::quick().with_accesses(ACCESSES)
}

/// One design point per `PrefetcherKind` variant.
fn kinds() -> Vec<PrefetcherKind> {
    vec![
        PrefetcherKind::Baseline,
        PrefetcherKind::ideal(),
        PrefetcherKind::Stms(StmsConfig::default()),
        PrefetcherKind::FixedDepth(FixedDepthConfig::default()),
        PrefetcherKind::Markov(MarkovConfig::default()),
    ]
}

fn digest(bytes: &[u8]) -> Fingerprint {
    let mut fp = Fingerprinter::new();
    fp.write_bytes(bytes);
    fp.finish()
}

#[test]
fn digests_are_pinned_to_the_model_version() {
    let mut fp = Fingerprinter::new();
    for (workload, prefetcher, digest) in SIM_RESULT_DIGESTS {
        for field in [workload, prefetcher, digest] {
            fp.write_str(field);
        }
    }
    fp.write_str(FIGURES_ALL_DIGEST);
    let actual = (MODEL_VERSION, fp.finish().to_hex());
    assert_eq!(
        (actual.0, actual.1.as_str()),
        DIGESTS_OF_MODEL,
        "the golden digests or MODEL_VERSION changed without the other: a change \
         that moves a simulated bit bumps MODEL_VERSION and updates DIGESTS_OF_MODEL"
    );
}

#[test]
fn sim_results_match_golden_digests() {
    let cfg = cfg();
    let mut actual = Vec::new();
    for spec in presets::all_presets() {
        let trace = build_trace(&cfg, &spec);
        for kind in kinds() {
            let result = run_trace(&cfg, &trace, &kind);
            actual.push((
                spec.name.clone(),
                kind.label(),
                digest(&result.encode()).to_hex(),
            ));
        }
    }
    let expected: Vec<(String, String, String)> = SIM_RESULT_DIGESTS
        .iter()
        .map(|&(w, k, d)| (w.to_string(), k.to_string(), d.to_string()))
        .collect();
    let listing: String = actual
        .iter()
        .map(|(w, k, d)| format!("    ({w:?}, {k:?}, {d:?}),\n"))
        .collect();
    assert!(actual == expected, "SimResult digests moved:\n{listing}");
}

#[test]
fn figures_all_text_matches_golden_digest() {
    let cfg = cfg();
    let campaign = Campaign::with_threads(cfg.clone(), 2);
    let mut text = String::new();
    for figure in campaign.run_figures(all_plans(&cfg)) {
        let figure = figure.expect("every figure renders");
        // Exactly what `stms-experiments` prints: one `println!` per figure.
        text.push_str(&figure.render());
        text.push('\n');
    }
    let actual = digest(text.as_bytes()).to_hex();
    assert_eq!(
        actual, FIGURES_ALL_DIGEST,
        "figures text digest moved; text was:\n{text}"
    );
}
