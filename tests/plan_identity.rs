//! Plan-identity guard for the optimizer.
//!
//! Prepares the unfolded rules of the `adhoc_unfold` workload texts (the
//! target query, three WHERE-filtered variants and `EVALUATE
//! DERIVABILITY`) on the Figure 7 6-peer chain, plus the target query on a
//! 7-peer chain and the five texts on a 7-peer branched topology, and
//! hashes the `Debug` rendering of every optimized plan. The constant pins
//! the optimizer's output: a change that only makes preparation faster must leave every
//! plan — join order, build sides, restoring projections and their column
//! names — exactly as it was. A second constant pins the `EXPLAIN` text
//! of the same queries, so the plan renderer stays byte-identical too.

use proql::exec::prepare_rules;
use proql::translate::{translate, TranslateOptions};
use proql::Engine;
use proql_cdss::topology::{build_system, target_query, CdssConfig, Topology};

/// 64-bit FNV-1a, folded over every plan in order.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Hash the optimized plans of `texts` on `topology` with `peers` peers,
/// data at every peer and base size 100, into `plans`, and their
/// `EXPLAIN` output into `explains`; returns the rule count too.
fn hash_plans(
    plans: &mut Fnv1a,
    explains: &mut Fnv1a,
    topology: Topology,
    peers: usize,
    texts: &[String],
) -> usize {
    let sys = build_system(topology, &CdssConfig::all_data(peers, 100)).expect("system builds");
    let mut rules = 0;
    for text in texts {
        let q = proql::parse_query(text).expect("text parses");
        let tr = translate(&sys, &q, None, &TranslateOptions::default()).expect("translates");
        for r in prepare_rules(&sys, &tr).expect("rules prepare") {
            plans.write(format!("{:?}", r.plan).as_bytes());
            plans.write(&[0xff]);
            rules += 1;
        }
    }
    let engine = Engine::new(sys);
    for text in texts {
        let out = engine.query(&format!("EXPLAIN {text}")).expect("explains");
        explains.write(out.plan.expect("EXPLAIN renders a plan").as_bytes());
        explains.write(&[0xff]);
    }
    rules
}

/// The five `adhoc_unfold` texts, with fixed literals.
fn adhoc_texts() -> Vec<String> {
    let target = target_query();
    vec![
        target.to_string(),
        "FOR [R0a $x] INCLUDE PATH [$x] <-+ [] WHERE $x.k >= 3 RETURN $x".to_string(),
        "FOR [R0a $x] INCLUDE PATH [$x] <-+ [] WHERE $x.k < 97 RETURN $x".to_string(),
        "FOR [R0a $x] INCLUDE PATH [$x] <-+ [] WHERE $x.k <> 42 RETURN $x".to_string(),
        format!("EVALUATE DERIVABILITY OF {{ {target} }}"),
    ]
}

/// FNV-1a of every plan, computed with the optimizer before its per-chain
/// memoization (names derived lazily, greedy inputs computed once,
/// one bottom-up build-side estimate).
const PLANS_FNV1A: u64 = 0x5d25_c3f7_7c96_03de;

/// FNV-1a of every `EXPLAIN` text, computed before the executor entry
/// points and the plan renderers were merged into one each. Plain
/// `EXPLAIN` only: `EXPLAIN ANALYZE` output carries timings.
const EXPLAIN_FNV1A: u64 = 0xd16d_8620_dd13_a51c;

#[test]
fn optimized_plans_are_pinned() {
    let (mut plans, mut explains) = (Fnv1a::new(), Fnv1a::new());
    let mut hash = |topology, peers, texts: &[String]| {
        hash_plans(&mut plans, &mut explains, topology, peers, texts)
    };
    let chain6 = hash(Topology::Chain, 6, &adhoc_texts());
    let chain7 = hash(Topology::Chain, 7, &[target_query().to_string()]);
    let branched = hash(Topology::Branched, 7, &adhoc_texts());
    assert_eq!((chain6, chain7, branched), (610, 365, 95));
    assert_eq!(plans.0, PLANS_FNV1A, "optimized plans changed");
    assert_eq!(explains.0, EXPLAIN_FNV1A, "EXPLAIN text changed");
}
