//! Recipe reduction operators for the bug-hunt shrinker.
//!
//! Each operator proposes one strictly-simpler variant of a recipe; the
//! shrinker (`stbus-hunt`) applies them greedily to a fixpoint, keeping a
//! candidate only when the original divergence still reproduces with the
//! same detector class. The operator list is ordered and fully
//! deterministic — the same recipe always yields the same candidates in
//! the same order — because shrink trajectories are part of the recorded
//! hunt report and must be byte-for-byte replayable.

use crate::recipe::Recipe;
use catg::TargetProfile;
use stbus_protocol::{NodeConfig, OpKind, Opcode, TransferSize};

/// True when `kind` can appear at all on `config`'s protocol (the
/// solver rejects illegal draws, so a model whose only weighted kinds
/// are illegal is unsatisfiable).
fn kind_legal(kind: OpKind, config: &NodeConfig) -> bool {
    Opcode::new(kind, TransferSize::B4).legal_for(config.protocol)
}

/// One proposed simplification of `recipe`: a stable label (recorded in
/// the shrink trajectory) and the reduced recipe itself.
pub type Reduction = (&'static str, Recipe);

fn keep_heaviest<T: Copy>(weights: &mut Vec<(T, u32)>) -> bool {
    let live = weights.iter().filter(|&&(_, w)| w > 0).count();
    if live <= 1 {
        return false;
    }
    let best = weights
        .iter()
        .enumerate()
        .max_by_key(|&(i, &(_, w))| (w, usize::MAX - i)) // ties: first wins
        .map(|(i, _)| i)
        .expect("non-empty");
    let kept = weights[best];
    *weights = vec![(kept.0, 1)];
    true
}

/// Proposes every applicable one-step reduction of `recipe`, in a fixed
/// order from coarsest (drop the programming schedule, collapse all ports
/// onto one personality) to finest (zero a single percentage knob). Only
/// reductions that actually change the recipe are returned; each result
/// is normalized for `config`.
pub fn recipe_reductions(recipe: &Recipe, config: &NodeConfig) -> Vec<Reduction> {
    let mut out: Vec<Reduction> = Vec::new();
    let mut propose = |label: &'static str, candidate: Recipe| {
        let mut candidate = candidate;
        candidate.normalize(config);
        if candidate != *recipe {
            out.push((label, candidate));
        }
    };

    // Coarse structure first: a shrink that lands one of these removes a
    // whole dimension from the reproducer.
    if !recipe.prog_schedule.is_empty() {
        let mut c = recipe.clone();
        c.prog_schedule.clear();
        propose("single-phase", c);
    }
    if recipe.prog_schedule.len() > 1 {
        let mut c = recipe.clone();
        c.prog_schedule.truncate(1);
        propose("one-prog-write", c);
    }
    if recipe.models.len() > 1 {
        let mut c = recipe.clone();
        c.models = vec![recipe.models[0].clone()];
        propose("clone-first-model", c);
    }
    {
        let mut c = recipe.clone();
        for m in &mut c.models {
            m.n_transactions = (m.n_transactions / 2).max(1);
        }
        propose("halve-transactions", c);
    }
    {
        let mut c = recipe.clone();
        for m in &mut c.models {
            m.constraints.clear();
        }
        propose("drop-constraints", c);
    }

    // Traffic mix: one kind, one size, uniform targets. The surviving
    // kind must be legal for the configuration's protocol, or the
    // reduced model would be unsatisfiable.
    {
        let mut c = recipe.clone();
        let mut changed = false;
        for m in &mut c.models {
            let mut legal: Vec<(OpKind, u32)> = m
                .kinds
                .iter()
                .map(|&(k, w)| (k, if kind_legal(k, config) { w } else { 0 }))
                .collect();
            keep_heaviest(&mut legal);
            if legal.iter().any(|&(_, w)| w > 0) && legal != m.kinds {
                m.kinds = legal;
                changed = true;
            }
        }
        if changed {
            propose("single-kind", c);
        }
    }
    {
        let mut c = recipe.clone();
        let mut changed = false;
        for m in &mut c.models {
            changed |= keep_heaviest(&mut m.sizes);
        }
        if changed {
            propose("single-size", c);
        }
    }
    if recipe.models.iter().any(|m| !m.targets.is_empty()) {
        let mut c = recipe.clone();
        for m in &mut c.models {
            m.targets.clear(); // empty weight list = uniform over targets
        }
        propose("uniform-targets", c);
    }

    // Personalities and percentage knobs last: these rarely carry the
    // divergence, so trying them late keeps trajectories short.
    if recipe
        .target_profiles
        .iter()
        .any(|p| *p != TargetProfile::default())
    {
        let mut c = recipe.clone();
        for p in &mut c.target_profiles {
            *p = TargetProfile::default();
        }
        propose("default-profiles", c);
    }
    if recipe.models.iter().any(|m| m.chunk_percent > 0) {
        let mut c = recipe.clone();
        for m in &mut c.models {
            m.chunk_percent = 0;
        }
        propose("no-chunks", c);
    }
    if recipe.models.iter().any(|m| m.unmapped_percent > 0) {
        let mut c = recipe.clone();
        for m in &mut c.models {
            m.unmapped_percent = 0;
        }
        propose("mapped-only", c);
    }
    if recipe.models.iter().any(|m| m.r_gnt_throttle_percent > 0) {
        let mut c = recipe.clone();
        for m in &mut c.models {
            m.r_gnt_throttle_percent = 0;
        }
        propose("no-throttle", c);
    }
    if recipe
        .models
        .iter()
        .any(|m| m.gap_min != 2 || m.gap_max != 6)
    {
        let mut c = recipe.clone();
        for m in &mut c.models {
            m.gap_min = 2;
            m.gap_max = 6;
        }
        propose("default-gaps", c);
    }
    out
}

/// Makes `recipe` legal for `config` after a *configuration* reduction:
/// drops target weights that now point past `n_targets`, resizes every
/// programming-schedule priority vector to the new initiator count, and
/// re-cycles models/profiles to the new port counts.
pub fn clamp_recipe(recipe: &mut Recipe, config: &NodeConfig) {
    for m in &mut recipe.models {
        m.targets
            .retain(|&(t, _)| (t.0 as usize) < config.n_targets);
        // A protocol downgrade (e.g. the shrinker's Type 1 collapse) can
        // leave every weighted kind illegal; fall back to loads so the
        // model stays satisfiable.
        if !m.kinds.iter().any(|&(k, w)| w > 0 && kind_legal(k, config)) {
            if let Some(slot) = m.kinds.iter_mut().find(|(k, _)| *k == OpKind::Load) {
                slot.1 = 1;
            } else {
                m.kinds.push((OpKind::Load, 1));
            }
        }
    }
    if !config.prog_port {
        recipe.prog_schedule.clear();
    }
    for (_, prios) in &mut recipe.prog_schedule {
        prios.resize(config.n_initiators, 0);
    }
    recipe.normalize(config);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng as _;

    fn prog_config() -> NodeConfig {
        NodeConfig::builder("red")
            .initiators(3)
            .targets(3)
            .prog_port(true)
            .build()
            .unwrap()
    }

    #[test]
    fn reductions_are_deterministic_and_strictly_different() {
        let config = prog_config();
        let recipe = Recipe::random(&config, &mut StdRng::seed_from_u64(7));
        let a = recipe_reductions(&recipe, &config);
        let b = recipe_reductions(&recipe, &config);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        for (label, candidate) in &a {
            assert_ne!(candidate, &recipe, "{label} proposed a no-op");
        }
    }

    #[test]
    fn narrow_recipe_reaches_a_fixpoint() {
        // Greedily accepting every proposal must terminate: from any
        // random recipe, repeatedly taking the first reduction bottoms
        // out with nothing left to propose.
        let config = prog_config();
        let mut recipe = Recipe::random(&config, &mut StdRng::seed_from_u64(11));
        let mut steps = 0usize;
        while let Some((_, next)) = recipe_reductions(&recipe, &config).into_iter().next() {
            recipe = next;
            steps += 1;
            assert!(steps < 200, "shrink lattice does not terminate");
        }
        assert!(recipe.prog_schedule.is_empty());
        assert!(recipe.models.iter().all(|m| m.n_transactions == 1));
        assert!(recipe
            .models
            .iter()
            .all(|m| m.kinds.iter().filter(|&&(_, w)| w > 0).count() == 1));
    }

    #[test]
    fn clamp_fits_a_recipe_to_a_smaller_config() {
        let big = prog_config();
        let recipe = Recipe::random(&big, &mut StdRng::seed_from_u64(3));
        let small = NodeConfig::builder("small")
            .initiators(1)
            .targets(1)
            .build()
            .unwrap();
        let mut clamped = recipe.clone();
        clamp_recipe(&mut clamped, &small);
        assert_eq!(clamped.models.len(), 1);
        assert_eq!(clamped.target_profiles.len(), 1);
        assert!(clamped.prog_schedule.is_empty());
        assert!(clamped
            .models
            .iter()
            .all(|m| m.targets.iter().all(|&(t, _)| t.0 == 0)));
    }
}
