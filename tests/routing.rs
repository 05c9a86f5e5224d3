//! Routing must be invisible in the results: for random request streams
//! — structured and random states, dense and sparse, exact and
//! approximated, duplicated for cache hits — every circuit served through
//! a 1-, 2-, or 4-shard [`Router`] is bit-identical to the one-shot
//! sequential pipeline, and the per-tenant ledgers reconcile. The cache
//! fingerprint and the ring placement it routes by are pinned to literal
//! values: warm-restarted shards find their snapshot keys only while both
//! stay put.

use mdq::core::PrepareOptions;
use mdq::engine::{canonical_key, fingerprint_of, EngineConfig, PrepareRequest, Priority};
use mdq::num::radix::Dims;
use mdq::num::Complex;
use mdq::router::{HashRing, Router, RouterConfig, TenantId};
use mdq::states::{ghz, w_state};
use proptest::prelude::*;

fn arb_dims() -> impl Strategy<Value = Dims> {
    proptest::collection::vec(2usize..5, 1..4).prop_map(|v| Dims::new(v).unwrap())
}

/// One request: structured or random target, exact or approximated
/// options, randomized priority (none of which may influence results).
fn arb_request() -> impl Strategy<Value = PrepareRequest> {
    arb_dims().prop_flat_map(|dims| {
        let n = dims.space_size();
        (
            Just(dims),
            0u8..4,
            0u8..2,
            0u8..3,
            proptest::collection::vec((-1.0..1.0f64, -1.0..1.0f64), n..=n),
        )
            .prop_filter_map(
                "state must have nonzero norm",
                |(dims, kind, approximate, priority, parts)| {
                    let options = if approximate == 1 {
                        PrepareOptions::approximated(0.98).without_zero_subtrees()
                    } else {
                        PrepareOptions::exact().without_zero_subtrees()
                    };
                    let priority = match priority {
                        0 => Priority::Low,
                        1 => Priority::Normal,
                        _ => Priority::High,
                    };
                    let request = match kind {
                        0 => PrepareRequest::dense(dims.clone(), ghz(&dims), options),
                        1 => PrepareRequest::dense(dims.clone(), w_state(&dims), options),
                        2 => PrepareRequest::sparse(
                            dims.clone(),
                            mdq::states::sparse::ghz(&dims),
                            options,
                        ),
                        _ => {
                            let v: Vec<Complex> = parts
                                .into_iter()
                                .map(|(re, im)| Complex::new(re, im))
                                .collect();
                            let norm = mdq::num::norm(&v);
                            if norm <= 1e-3 {
                                return None;
                            }
                            PrepareRequest::dense(
                                dims.clone(),
                                v.iter().map(|a| *a / norm).collect(),
                                options,
                            )
                        }
                    };
                    Some(request.with_priority(priority))
                },
            )
    })
}

/// A stream with duplicates, so some requests are served from shard
/// caches — cached circuits must be as bit-exact as fresh ones.
fn arb_stream() -> impl Strategy<Value = Vec<PrepareRequest>> {
    (
        proptest::collection::vec(arb_request(), 2..5),
        proptest::collection::vec(0usize..1000, 2..5),
    )
        .prop_map(|(requests, picks)| {
            let mut stream = requests.clone();
            for pick in picks {
                stream.push(requests[pick % requests.len()].clone());
            }
            stream
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The acceptance property of the router: across 1, 2, and 4 shards,
    /// every routed circuit is raw-bit identical to direct sequential
    /// preparation of the same request, duplicates come back identical
    /// (cache-served or not), equal requests always co-locate on one
    /// shard, and `completed == submitted` with nothing rejected.
    #[test]
    fn prop_routed_results_are_bit_identical_across_shard_counts(stream in arb_stream()) {
        let expected: Vec<_> = stream
            .iter()
            .map(|r| r.prepare_sequential().unwrap().circuit)
            .collect();
        for shards in [1usize, 2, 4] {
            let router = Router::new(
                RouterConfig::default()
                    .with_engine_config(EngineConfig::default().with_workers(2)),
            );
            for id in 0..shards {
                router.add_shard(id);
            }
            let tenant = TenantId(0);
            let handles: Vec<_> = stream
                .iter()
                .map(|r| router.submit(tenant, r.clone()).expect("unbounded router admits"))
                .collect();
            let mut shard_of: std::collections::HashMap<String, usize> =
                std::collections::HashMap::new();
            for ((handle, request), expected) in
                handles.into_iter().zip(&stream).zip(&expected)
            {
                // Equal requests must co-locate (fingerprint routing).
                let key = format!("{request:?}");
                let shard = handle.shard();
                let previous = shard_of.insert(key, shard);
                if let Some(previous) = previous {
                    prop_assert_eq!(previous, shard);
                }
                let report = handle.wait().expect("routed job must succeed");
                prop_assert_eq!(&*report.circuit, expected);
            }
            let stats = router.stats();
            prop_assert_eq!(stats.submitted, stream.len() as u64);
            prop_assert_eq!(stats.completed, stream.len() as u64);
            prop_assert_eq!(stats.rejected, 0);
            prop_assert_eq!(stats.shards.len(), shards);
            router.shutdown();
        }
    }
}

/// Fingerprint of dense GHZ on `[3,6,2]` under exact options.
const GHZ_362_FINGERPRINT: u64 = 0xbdd7_242c_1edd_1b70;

#[test]
fn fingerprint_of_a_fixed_key_is_pinned() {
    let dims = Dims::new(vec![3, 6, 2]).unwrap();
    let request = PrepareRequest::dense(dims.clone(), ghz(&dims), PrepareOptions::exact());
    let (fingerprint, key) = canonical_key(&request).expect("well-formed request");
    assert_eq!(fingerprint, GHZ_362_FINGERPRINT);
    assert_eq!(fingerprint_of(&key), GHZ_362_FINGERPRINT);
}

#[test]
fn ring_placement_on_four_shards_is_pinned() {
    let mut ring = HashRing::default();
    for shard in 0..4 {
        ring.add(shard);
    }
    let pinned: [(u64, usize); 8] = [
        (0, 3),
        (1, 3),
        (42, 3),
        (0x0123_4567_89ab_cdef, 0),
        (0x8000_0000_0000_0000, 2),
        (0xdead_beef_cafe_f00d, 3),
        (u64::MAX, 3),
        (GHZ_362_FINGERPRINT, 1),
    ];
    for (fingerprint, shard) in pinned {
        assert_eq!(ring.route(fingerprint), Some(shard), "{fingerprint:#018x}");
    }
    // A golden-ratio stride over the whole ring, touching every shard.
    let stride: Vec<usize> = (0..16u64)
        .map(|i| ring.route(i.wrapping_mul(0x9e37_79b9_7f4a_7c15)).unwrap())
        .collect();
    assert_eq!(stride, [3, 1, 3, 2, 1, 3, 1, 3, 0, 1, 3, 1, 3, 0, 1, 0]);
}

/// A routed cache hit is answered at the shard's admission: on a shard
/// whose only worker is pinned and whose single queue slot is taken, a
/// routed miss is refused `ShardRefused(QueueFull)`, while the routed hit
/// resolves at once and counts as completed in its tenant's ledger.
/// Tenant quotas still gate every request, hits included.
#[test]
fn routed_cache_hit_resolves_on_a_full_shard_queue() {
    use mdq::engine::{EngineError, VerificationPolicy};
    use mdq::router::{RouterError, TenantQuota};
    use mdq::states::{random_state, RandomKind};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let router = Router::new(
        RouterConfig::default()
            .with_engine_config(EngineConfig::default().with_workers(1).with_queue_depth(1)),
    );
    router.add_shard(0);
    let (tenant, busy) = (TenantId(3), TenantId(4));
    router.set_quota(busy, TenantQuota::unlimited().with_max_in_flight(2));
    let d = Dims::new(vec![3, 6, 2]).unwrap();
    let cached = PrepareRequest::dense(d.clone(), ghz(&d), PrepareOptions::exact());
    let expected = cached.prepare_sequential().unwrap().circuit;
    let first = router
        .submit(tenant, cached.clone())
        .unwrap()
        .wait()
        .unwrap();
    assert!(!first.from_cache);

    // The busy tenant pins the worker and takes the single slot, which
    // also puts it at its quota of two jobs in flight.
    let big = Dims::new(vec![4, 7, 4, 4, 3, 5]).unwrap();
    let state = random_state(&big, RandomKind::ReImUniform, &mut StdRng::seed_from_u64(7));
    let pin = router
        .submit(
            busy,
            PrepareRequest::dense(big, state, PrepareOptions::exact())
                .with_verification(VerificationPolicy::replay(0.99)),
        )
        .unwrap();
    while router.stats().shards[0].engine.queued > 0 {
        std::thread::yield_now();
    }
    let filler = router
        .submit(
            busy,
            PrepareRequest::dense(d.clone(), w_state(&d), PrepareOptions::exact()),
        )
        .unwrap();
    let miss = PrepareRequest::dense(d.clone(), w_state(&d), PrepareOptions::approximated(0.98));
    let refused_full = || {
        matches!(
            router.submit(tenant, miss.clone()),
            Err(RouterError::ShardRefused {
                error: EngineError::QueueFull { limit: 1, .. },
                ..
            })
        )
    };
    assert!(refused_full(), "a routed miss finds the slot taken");

    let mut hit = router
        .submit(tenant, cached.clone())
        .expect("a routed hit is never refused for a full queue");
    assert!(
        matches!(
            router.submit(busy, cached.clone()),
            Err(RouterError::TenantOverQuota { .. })
        ),
        "the quota gates hits too"
    );
    assert!(refused_full(), "the queue stayed full across the hit");
    let report = hit
        .try_wait()
        .expect("resolved at admission")
        .as_ref()
        .expect("the hit succeeds");
    assert!(report.from_cache);
    assert_eq!(*report.circuit, expected);

    let ledger = |id: TenantId| {
        router
            .stats()
            .tenants
            .into_iter()
            .find(|t| t.tenant == id)
            .expect("tenant has a ledger")
    };
    let t = ledger(tenant);
    assert_eq!((t.submitted, t.completed, t.rejected), (4, 2, 2));
    assert_eq!(t.in_flight, 0, "the hit released its quota slot");
    pin.wait().expect("the pinning job completes");
    filler.wait().expect("the queued miss completes");
    let b = ledger(busy);
    assert_eq!((b.submitted, b.completed, b.rejected), (3, 2, 1));
    for t in [ledger(tenant), ledger(busy)] {
        assert_eq!(t.completed + t.failed + t.rejected + t.dropped, t.submitted);
    }
    router.shutdown();
}
