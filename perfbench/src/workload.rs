//! Request catalogs and generators of the three workloads. Every input is
//! a pure function of the `--seed` argument; the service only ever sees
//! the generated requests.

use mdq_core::{PrepareOptions, VerificationPolicy};
use mdq_engine::PrepareRequest;
use mdq_num::radix::Dims;
use mdq_num::Complex;
use mdq_states::{embedded_w, ghz, random_state, sparse, w_state, RandomKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Replay-verification floor. The 98 %-approximated jobs verify at their
/// reached fidelity (≈ 0.98–0.99), so the floor sits below that.
pub const FIDELITY_FLOOR: f64 = 0.95;

/// The Table-1 registers that carry the structured families.
pub fn table1_registers() -> [Dims; 3] {
    [
        Dims::new(vec![3, 6, 2]).expect("valid register"),
        Dims::new(vec![9, 5, 6, 3]).expect("valid register"),
        Dims::new(vec![4, 7, 4, 4, 3, 5]).expect("valid register"),
    ]
}

fn large_dense_register() -> Dims {
    Dims::new(vec![4, 7, 4, 4, 3, 5]).expect("valid register")
}

fn wide_dense_register() -> Dims {
    Dims::new(vec![3, 4, 3, 4, 3, 4, 3, 4]).expect("valid register")
}

/// The 20-qudit sparse bench register (≈ 2.5·10¹⁰ amplitudes, within
/// `usize`).
pub fn sparse_register() -> Dims {
    Dims::new((0..20).map(|i| 2 + (i % 4)).collect()).expect("valid register")
}

/// A generator seeded from the run seed and a stream-specific tag, so
/// every stream of inputs is independent and reproducible.
pub fn rng(seed: u64, tag: u64, index: u64) -> StdRng {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(tag.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(index.wrapping_mul(0x94D0_49BB_1331_11EB));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    StdRng::seed_from_u64(z ^ (z >> 31))
}

fn random_dense(dims: &Dims, rng: &mut StdRng) -> Vec<Complex> {
    random_state(dims, RandomKind::ReImUniform, rng)
}

/// `warm-socket`: 16 popular requests, every one of them served from the
/// shard caches once set-up has run.
pub fn warm_catalog(seed: u64) -> Vec<PrepareRequest> {
    let exact = PrepareOptions::exact();
    let approx = PrepareOptions::approximated(0.98);
    let mut catalog = Vec::new();
    for dims in table1_registers() {
        catalog.push(PrepareRequest::dense(dims.clone(), ghz(&dims), exact));
        catalog.push(PrepareRequest::dense(dims.clone(), w_state(&dims), exact));
        catalog.push(PrepareRequest::dense(
            dims.clone(),
            embedded_w(&dims),
            exact,
        ));
        catalog.push(PrepareRequest::dense(dims.clone(), w_state(&dims), approx));
    }
    let dense = large_dense_register();
    let mut r = rng(seed, 1, 0);
    catalog.push(PrepareRequest::dense(
        dense.clone(),
        random_dense(&dense, &mut r),
        exact,
    ));
    catalog.push(PrepareRequest::dense(
        dense.clone(),
        random_dense(&dense, &mut r),
        approx,
    ));
    let wide = sparse_register();
    catalog.push(PrepareRequest::sparse(
        wide.clone(),
        sparse::w_state(&wide),
        exact,
    ));
    catalog.push(PrepareRequest::sparse(
        wide.clone(),
        sparse::w_state(&wide),
        approx,
    ));
    catalog
}

/// Visits per 100-call warm-socket cycle of each `warm_catalog` entry.
/// The classes are sized so that the median call falls in the middle of
/// the W and W-98 % `[9,5,6,3]` calls (codec-bound, ~0.6 ms) and the p99
/// call in the middle of the two random `[4,7,4,4,3,5]` entries (2 % of
/// calls), never on a boundary between classes whose costs differ
/// several-fold; quantiles taken there swing with every small shift in
/// the mix.
const WARM_VISITS: [usize; 16] = [9, 9, 9, 9, 4, 6, 4, 6, 5, 5, 5, 5, 1, 1, 11, 11];

/// One warm-socket cycle: every catalog entry as often as
/// `WARM_VISITS` says, in seeded order.
pub fn warm_cycle(seed: u64, catalog: &[PrepareRequest]) -> Vec<usize> {
    assert_eq!(
        catalog.len(),
        WARM_VISITS.len(),
        "one visit count per entry"
    );
    let mut order: Vec<usize> = WARM_VISITS
        .iter()
        .enumerate()
        .flat_map(|(i, &visits)| std::iter::repeat_n(i, visits))
        .collect();
    let n = order.len();
    let mut r = rng(seed, 2, 0);
    for i in (1..n).rev() {
        order.swap(i, r.gen_range(0..i + 1));
    }
    order
}

/// `mixed-socket` hot set: sparse GHZ, W and embedded W on the 20-qudit
/// register, then `MIXED_HOT_RANDOM` random states of support
/// `MIXED_SUPPORT`. Set-up caches every one of them, verified.
pub fn mixed_hot(seed: u64) -> Vec<PrepareRequest> {
    let dims = sparse_register();
    let exact = PrepareOptions::exact();
    let mut hot = vec![
        PrepareRequest::sparse(dims.clone(), sparse::ghz(&dims), exact),
        PrepareRequest::sparse(dims.clone(), sparse::w_state(&dims), exact),
        PrepareRequest::sparse(dims.clone(), sparse::embedded_w(&dims), exact),
    ];
    for i in 0..MIXED_HOT_RANDOM {
        let entries = sparse::random_sparse(&dims, MIXED_SUPPORT, &mut rng(seed, 3, i as u64));
        hot.push(PrepareRequest::sparse(dims.clone(), entries, exact));
    }
    hot
}

const MIXED_HOT_RANDOM: usize = 5;
/// Support of the hot random states and of most fresh requests.
pub const MIXED_SUPPORT: usize = 32;
/// Support of the rare, costliest fresh requests.
pub const MIXED_RARE_SUPPORT: usize = 128;

/// One job slot of a `mixed-socket` cycle.
#[derive(Clone, Copy)]
pub enum MixedSlot {
    /// A hot-set entry, served from cache.
    Hot(usize),
    /// A request never sent before, of this support: a cache miss that
    /// inserts and, once the cache is full, evicts.
    Fresh(usize),
}

/// Visits per 50-job mixed-socket cycle of each hot entry, most popular
/// first within each kind (GHZ, W, embedded W, then the random states).
/// Cost classes, cheapest first: family hits (20 % of jobs), random hits
/// (60 %), fresh support-32 misses (18 %), fresh support-128 misses,
/// always replay-verified (2 %).
/// The median job falls in the middle of the random hits and the p99 job
/// in the middle of the rare misses, never on a class boundary.
const MIXED_HOT_VISITS: [usize; 3 + MIXED_HOT_RANDOM] = [4, 3, 3, 9, 7, 6, 4, 4];
const MIXED_FRESH: usize = 9;
const MIXED_RARE: usize = 1;

/// One mixed-socket cycle in seeded order.
pub fn mixed_cycle(seed: u64) -> Vec<MixedSlot> {
    let mut order: Vec<MixedSlot> = MIXED_HOT_VISITS
        .iter()
        .enumerate()
        .flat_map(|(i, &visits)| std::iter::repeat_n(MixedSlot::Hot(i), visits))
        .chain(std::iter::repeat_n(
            MixedSlot::Fresh(MIXED_SUPPORT),
            MIXED_FRESH,
        ))
        .chain(std::iter::repeat_n(
            MixedSlot::Fresh(MIXED_RARE_SUPPORT),
            MIXED_RARE,
        ))
        .collect();
    let n = order.len();
    let mut r = rng(seed, 4, 0);
    for i in (1..n).rev() {
        order.swap(i, r.gen_range(0..i + 1));
    }
    order
}

/// Marks a job `entry` as a fresh mixed-socket request rather than a
/// hot-set index.
const FRESH: u64 = 1 << 63;

/// Packs fresh request `index` of `stream` into a job's `entry` field,
/// with everything needed to regenerate it.
pub fn mixed_fresh_entry(stream: u64, index: u64, support: usize) -> u64 {
    FRESH | (stream << 48) | ((support as u64) << 32) | index
}

/// The fresh request a job `entry` names, or `None` for a hot-set entry.
/// Every fresh request is distinct, so the cache never holds it.
pub fn mixed_fresh(seed: u64, entry: u64) -> Option<PrepareRequest> {
    if entry & FRESH == 0 {
        return None;
    }
    let stream = (entry & !FRESH) >> 48;
    let support = ((entry >> 32) & 0xFFFF) as usize;
    let index = entry & 0xFFFF_FFFF;
    let dims = sparse_register();
    let entries = sparse::random_sparse(&dims, support, &mut rng(seed, 30 + stream, index));
    Some(PrepareRequest::sparse(
        dims,
        entries,
        PrepareOptions::exact(),
    ))
}

/// Whether job `index` of a mixed-socket client demands replay
/// verification: every other job, offset per client, and every rare
/// request, so that the class the p99 falls in has a single cost.
pub fn mixed_verifies(client: usize, index: u64, slot: MixedSlot) -> bool {
    matches!(slot, MixedSlot::Fresh(MIXED_RARE_SUPPORT)) || (index + client as u64) % 2 == 0
}

pub fn with_replay(request: PrepareRequest) -> PrepareRequest {
    request.with_verification(VerificationPolicy::replay(FIDELITY_FLOOR))
}

/// Jobs per `cold-batch` cycle of each class: the Table-1 families
/// (GHZ, W, embedded W; exact and 98 %) on `[3,6,2]`, `[9,5,6,3]` and
/// `[4,7,4,4,3,5]`, then random `[4,7,4,4,3,5]`, then random
/// `[3,4,3,4,3,4,3,4]`. As in `WARM_VISITS`, the median job falls in the
/// middle of the `[4,7,4,4,3,5]` family class (compute-bound, ~0.7 ms)
/// and the p99 job in the middle of the largest class (2 % of jobs).
const COLD_CLASSES: [u64; 5] = [2, 3, 40, 4, 1];
pub const COLD_CYCLE: u64 = 50;

/// Request `index` of cold-batch submitter `stream`. Every request is
/// distinct: family states carry a seeded global phase, random states are
/// fresh draws, so the cache only ever inserts.
pub fn cold_request(seed: u64, stream: u64, index: u64) -> PrepareRequest {
    let mut r = rng(seed, 10 + stream, index);
    let cycle = index / COLD_CYCLE;
    // Offset the streams by half a cycle so both workers do not reach the
    // largest class together.
    let mut slot = (index + stream * (COLD_CYCLE / 2)) % COLD_CYCLE;
    let mut class = 0;
    while slot >= COLD_CLASSES[class] {
        slot -= COLD_CLASSES[class];
        class += 1;
    }
    let exact = PrepareOptions::exact();
    let approx = PrepareOptions::approximated(0.98);
    let request = match class {
        0..=2 => {
            let dims = table1_registers()[class].clone();
            let variant = (slot + cycle) % 6;
            let state = match variant / 2 {
                0 => ghz(&dims),
                1 => w_state(&dims),
                _ => embedded_w(&dims),
            };
            let phase = Complex::cis(r.gen_range(0.0..std::f64::consts::TAU));
            let state = state.into_iter().map(|a| a * phase).collect();
            PrepareRequest::dense(dims, state, if variant % 2 == 0 { exact } else { approx })
        }
        3 => {
            let dims = large_dense_register();
            let state = random_dense(&dims, &mut r);
            PrepareRequest::dense(dims, state, if slot % 2 == 0 { exact } else { approx })
        }
        _ => {
            let dims = wide_dense_register();
            let state = random_dense(&dims, &mut r);
            PrepareRequest::dense(dims, state, if cycle % 2 == 0 { exact } else { approx })
        }
    };
    with_replay(request)
}

/// Packs a cold-batch request id into a job's `entry` field.
pub fn cold_entry(stream: u64, index: u64) -> u64 {
    (stream << 32) | index
}

pub fn cold_unpack(entry: u64) -> (u64, u64) {
    (entry >> 32, entry & 0xFFFF_FFFF)
}
