//! The union-estimator oracles checked against real sketches, shared by the
//! fixed-family equivalence suite and the random-NFA property test.
//!
//! A built sketch records every estimate the packed kernel produced: `R(v)`
//! for each sampled vertex, and the final estimate over the accepting set.
//! The two reference kernels must reproduce each of them bit for bit from the
//! same member sets: the seed's quadratic scan over cached reach sets, and
//! the scalar prefix-mask walk with every reach set recomputed from its word.
//! Random subsets of each layer then check all three kernels on member sets
//! no build asked for.

use lsc_arith::BigFloat;
use lsc_automata::unroll::NodeId;
use lsc_core::fpras::{
    estimate_union_packed, estimate_union_quadratic, estimate_union_with_mask, reach_of,
    FprasState, MaskArena,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const KERNELS: [&str; 3] = ["packed", "quadratic scan", "scalar walk (recomputed reach)"];

/// `W̃` over `members` by each kernel, in [`KERNELS`] order.
fn estimates(state: &FprasState, members: &[NodeId]) -> [BigFloat; 3] {
    let (dag, data, nfa) = (state.dag(), state.vertex_data(), state.nfa());
    let state_of = |v: NodeId| dag.node_info(v).1;
    let mut arena = MaskArena::new(nfa.num_states());
    [
        estimate_union_packed(members, data, &mut arena, state_of),
        estimate_union_quadratic(members, data, state_of, |e, q| e.reach.contains(q)),
        estimate_union_with_mask(members, data, &mut arena, state_of, |e, mask| {
            mask.intersects(&reach_of(nfa, &e.word))
        }),
    ]
}

/// Fails unless every kernel's value is `want`, bit for bit.
fn agree(what: &str, want: BigFloat, got: [BigFloat; 3]) -> Result<(), String> {
    for (kernel, value) in KERNELS.iter().zip(got) {
        if value.to_raw_parts() != want.to_raw_parts() {
            return Err(format!("{what}: {kernel} gave {value}, want {want}"));
        }
    }
    Ok(())
}

/// Checks the kernels on `state` as the module docs describe, drawing the
/// layer subsets from `seed`. Returns how many sampled vertices it checked.
pub fn check_on_sketch(state: &FprasState, seed: u64) -> Result<usize, String> {
    let (dag, data) = (state.dag(), state.vertex_data());
    let mut sampled = 0;
    for (v, d) in data.iter().enumerate() {
        let Some(d) = d.as_ref().filter(|d| !d.exact) else {
            continue;
        };
        // R(v) is the sum over v's per-symbol predecessor partitions, in
        // symbol order; `in_edges` is sorted by (symbol, source).
        let mut sums = [BigFloat::zero(); 3];
        for run in dag.in_edges(v).chunk_by(|a, b| a.0 == b.0) {
            let mut part: Vec<NodeId> = run.iter().map(|&(_, u)| u).collect();
            part.dedup();
            for (sum, w) in sums.iter_mut().zip(estimates(state, &part)) {
                *sum = sum.add(w);
            }
        }
        agree(&format!("R({v})"), d.r, sums)?;
        sampled += 1;
    }
    agree(
        "final estimate",
        state.estimate(),
        estimates(state, dag.accepting()),
    )?;
    if state.is_empty_language() {
        return Ok(sampled);
    }
    let mut rng = StdRng::seed_from_u64(seed);
    for t in 1..=dag.word_length() {
        for draw in 0..4 {
            let subset: Vec<NodeId> = dag
                .layer(t)
                .iter()
                .copied()
                .filter(|&v| data[v].is_some() && rng.gen_bool(0.5))
                .collect();
            let got = estimates(state, &subset);
            agree(&format!("layer {t} subset {draw}"), got[0], got)?;
        }
    }
    Ok(sampled)
}
