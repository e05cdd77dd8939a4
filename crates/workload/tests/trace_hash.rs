//! `Trace::hash` streams the canonical JSON straight into its FNV passes.
//! This suite keeps the document-building path — `to_value`, recursive key
//! sort, `serde_json::to_string`, then FNV-1a over the text — as the
//! oracle, and asserts both agree on the canonical traces at several sizes
//! and on generated traces with awkward strings and float edge values.

use cpm_core::rank::Rank;
use cpm_workload::{gen, OpKind, Trace, TraceOp};
use proptest::prelude::*;
use serde_json::Value;

fn canonicalize(v: Value) -> Value {
    match v {
        Value::Map(mut entries) => {
            for (_, val) in entries.iter_mut() {
                let owned = std::mem::replace(val, Value::Null);
                *val = canonicalize(owned);
            }
            entries.sort_by(|a, b| a.0.cmp(&b.0));
            Value::Map(entries)
        }
        Value::Seq(items) => Value::Seq(items.into_iter().map(canonicalize).collect()),
        other => other,
    }
}

fn fnv1a(bytes: &[u8], mut hash: u64) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

fn oracle_hash(t: &Trace) -> String {
    let canonical = serde_json::to_string(&canonicalize(t.to_value())).unwrap();
    let lo = fnv1a(canonical.as_bytes(), 0xcbf2_9ce4_8422_2325);
    let hi = fnv1a(
        canonical.as_bytes(),
        0xcbf2_9ce4_8422_2325 ^ 0x9e37_79b9_7f4a_7c15,
    );
    format!("{hi:016x}{lo:016x}")
}

#[test]
fn canonical_traces_hash_like_the_oracle() {
    for kind in gen::CANONICAL_KINDS {
        for (n, m, iters) in [
            (2, 1, 1),
            (4, 8192, 2),
            (7, 4096, 3),
            (16, 65536, 2),
            (96, 1024, 1),
        ] {
            let t = gen::canonical(kind, n, m, iters).unwrap();
            assert_eq!(
                t.hash(),
                oracle_hash(&t),
                "{kind} n={n} m={m} iters={iters}"
            );
        }
    }
}

#[test]
fn golden_hash_matches_the_oracle() {
    let t = gen::canonical("train", 4, 8192, 2).unwrap();
    assert_eq!(oracle_hash(&t), "e0ca10988be1bb618e7a6f14f75e5eea");
    assert_eq!(t.hash(), oracle_hash(&t));
}

/// Characters that stress JSON escaping: quotes, backslashes, control
/// characters (short and `\u` escapes), DEL, multi-byte UTF-8.
const ODD_CHARS: &[char] = &[
    'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{8}', '\u{c}', '\u{1}', '\u{1f}',
    '\u{7f}', 'é', 'ü', '—', '漢', '🚀', '\u{2028}', '\u{fffd}',
];

fn odd_string() -> impl Strategy<Value = String> {
    proptest::collection::vec(0..ODD_CHARS.len(), 0..8)
        .prop_map(|ixs| ixs.into_iter().map(|i| ODD_CHARS[i]).collect())
}

/// Floats whose shortest round-trip text is easy to get wrong: signed
/// zero, subnormals, the exponent switch-over points, the extremes.
const EDGE_F64: &[f64] = &[
    0.0,
    -0.0,
    5e-324,
    f64::MIN_POSITIVE,
    1e-7,
    0.1 + 0.2,
    1.0,
    1e15,
    1e16,
    1e21,
    1e22,
    f64::MAX,
    4e-9,
];

fn edge_f64() -> impl Strategy<Value = f64> {
    (0..EDGE_F64.len() + 1, any::<u64>()).prop_map(|(i, bits)| match EDGE_F64.get(i) {
        Some(x) => *x,
        None => {
            let x = f64::from_bits(bits);
            if x.is_finite() {
                x
            } else {
                1.5
            }
        }
    })
}

fn op_kind() -> impl Strategy<Value = OpKind> {
    (
        0u32..9,
        any::<u32>(),
        any::<u32>(),
        any::<u64>(),
        edge_f64(),
        proptest::collection::vec(any::<u32>(), 0..5),
    )
        .prop_map(|(which, a, b, m, x, ranks)| match which {
            0 => OpKind::P2p {
                src: Rank(a),
                dst: Rank(b),
                m,
            },
            1 => OpKind::Scatter { root: Rank(a), m },
            2 => OpKind::Gather { root: Rank(a), m },
            3 => OpKind::Bcast { root: Rank(a), m },
            4 => OpKind::Reduce {
                root: Rank(a),
                m,
                gamma: x,
            },
            5 => OpKind::Allgather { m },
            6 => OpKind::Alltoall { m },
            7 => OpKind::Compute {
                ranks: ranks.into_iter().map(Rank).collect(),
                seconds: x,
            },
            _ => OpKind::Barrier,
        })
}

fn trace() -> impl Strategy<Value = Trace> {
    let op = (any::<u64>(), odd_string(), op_kind()).prop_map(|(id, phase, kind)| TraceOp {
        id,
        phase,
        kind,
    });
    (
        odd_string(),
        0usize..100_000,
        proptest::collection::vec(op, 0..24),
    )
        .prop_map(|(name, n, ops)| Trace { name, n, ops })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn generated_traces_hash_like_the_oracle(t in trace()) {
        prop_assert_eq!(t.hash(), oracle_hash(&t));
    }

    #[test]
    fn repeated_phases_hash_like_the_oracle(
        phases in proptest::collection::vec(odd_string(), 1..4),
        picks in proptest::collection::vec(0usize..4, 1..30),
    ) {
        // Runs of equal and alternating phases exercise the streamed
        // hash's reuse of the last phase's escaped text.
        let ops = picks
            .iter()
            .enumerate()
            .map(|(i, &p)| TraceOp {
                id: i as u64,
                phase: phases[p % phases.len()].clone(),
                kind: OpKind::Barrier,
            })
            .collect();
        let t = Trace { name: "phases".into(), n: 4, ops };
        prop_assert_eq!(t.hash(), oracle_hash(&t));
    }
}
