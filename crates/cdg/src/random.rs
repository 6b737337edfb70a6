//! Random recipe generation for the differential bug-hunt fleet.
//!
//! The closure loop *edits* recipes toward coverage holes; the hunt fleet
//! instead *draws* them whole from a seeded RNG, one independent
//! personality per port, so every probe exercises a different corner of
//! the stimulus space. The draw is deliberately wide — saturating and
//! lazy issue rates, locked chunks, unmapped probes, response throttling,
//! reprogramming-port writes — because the fleet's job is to reach the
//! collision windows the twelve directed tests only sometimes hit. Every
//! draw is a plain function of the RNG stream, so a probe reproduces
//! exactly from its recorded seed.

use crate::recipe::Recipe;
use catg::{ConstraintModel, TargetProfile};
use rand::rngs::StdRng;
use rand::Rng as _;
use stbus_protocol::{NodeConfig, OpKind, Opcode, TargetId, TransferSize};

/// Every drawable operation kind, in catalogue order.
const KINDS: [OpKind; 6] = [
    OpKind::Load,
    OpKind::Store,
    OpKind::ReadModifyWrite,
    OpKind::Swap,
    OpKind::Flush,
    OpKind::Purge,
];

fn random_model(config: &NodeConfig, rng: &mut StdRng) -> ConstraintModel {
    let mut kinds: Vec<(OpKind, u32)> = KINDS
        .iter()
        .map(|&k| (k, rng.gen_range(0u32..=3)))
        .collect();
    // The solver rejects draws until a protocol-legal opcode comes up, so
    // at least one weighted kind must be legal for this protocol (Type 1
    // only speaks loads and stores): fall back to loads.
    let legal = |k: OpKind| Opcode::new(k, TransferSize::B4).legal_for(config.protocol);
    if !kinds.iter().any(|&(k, w)| w > 0 && legal(k)) {
        kinds[0].1 = 1;
    }
    let mut sizes: Vec<(TransferSize, u32)> = TransferSize::ALL
        .iter()
        .map(|&s| (s, rng.gen_range(0u32..=2)))
        .collect();
    if sizes.iter().all(|&(_, w)| w == 0) {
        sizes[0].1 = 1;
    }
    // Weighted targets; an empty list means "uniform over all targets",
    // which the draw keeps reachable.
    let mut targets: Vec<(TargetId, u32)> = (0..config.n_targets)
        .map(|t| (TargetId(t as u8), rng.gen_range(0u32..=2)))
        .collect();
    targets.retain(|&(_, w)| w > 0);
    let gap_min = rng.gen_range(0u64..=6);
    ConstraintModel {
        n_transactions: rng.gen_range(8usize..=30),
        kinds,
        sizes,
        targets,
        gap_min,
        gap_max: gap_min + rng.gen_range(0u64..=10),
        chunk_percent: rng.gen_range(0u32..=3) * 20,
        unmapped_percent: rng.gen_range(0u32..=4) * 5,
        pri: rng.gen_range(0u8..=9),
        r_gnt_throttle_percent: rng.gen_range(0u32..=3) * 10,
        window: [256, 1024, 4096][rng.gen_range(0usize..=2)],
        constraints: Vec::new(),
    }
}

impl Recipe {
    /// Draws one fully random (but always legal) recipe for `config`:
    /// an independent constraint model per initiator, an independent
    /// personality per target, and — on configurations with a
    /// programming port — an optional two-phase priority-rewrite
    /// schedule. Deterministic per RNG state.
    pub fn random(config: &NodeConfig, rng: &mut StdRng) -> Recipe {
        let models = (0..config.n_initiators)
            .map(|_| random_model(config, rng))
            .collect();
        let target_profiles = (0..config.n_targets)
            .map(|_| {
                let min_latency = rng.gen_range(1u64..=8);
                TargetProfile {
                    min_latency,
                    max_latency: min_latency + rng.gen_range(0u64..=12),
                    gnt_throttle_percent: rng.gen_range(0u32..=2) * 20,
                }
            })
            .collect();
        let prog_schedule = if config.prog_port && rng.gen_bool(0.5) {
            let prios = |rng: &mut StdRng| {
                (0..config.n_initiators)
                    .map(|_| rng.gen_range(0u8..=9))
                    .collect::<Vec<u8>>()
            };
            vec![
                (rng.gen_range(10u64..=40), prios(rng)),
                (rng.gen_range(50u64..=90), prios(rng)),
            ]
        } else {
            Vec::new()
        };
        let mut recipe = Recipe {
            name: "hunt".to_owned(),
            models,
            target_profiles,
            prog_schedule,
        };
        recipe.normalize(config);
        recipe
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng as _;

    #[test]
    fn random_recipes_are_deterministic_per_seed() {
        let config = NodeConfig::reference();
        for seed in 0..16u64 {
            let a = Recipe::random(&config, &mut StdRng::seed_from_u64(seed));
            let b = Recipe::random(&config, &mut StdRng::seed_from_u64(seed));
            assert_eq!(a, b, "seed {seed}");
        }
    }

    #[test]
    fn random_recipes_fit_the_config_shape_and_round_trip() {
        let config = NodeConfig::reference();
        for seed in 0..16u64 {
            let recipe = Recipe::random(&config, &mut StdRng::seed_from_u64(seed));
            assert_eq!(recipe.models.len(), config.n_initiators);
            assert_eq!(recipe.target_profiles.len(), config.n_targets);
            for m in &recipe.models {
                assert!(m.n_transactions >= 1);
                assert!(m.kinds.iter().any(|&(_, w)| w > 0));
                assert!(m.sizes.iter().any(|&(_, w)| w > 0));
                assert!(m
                    .targets
                    .iter()
                    .all(|&(t, _)| (t.0 as usize) < config.n_targets));
            }
            for (_, prios) in &recipe.prog_schedule {
                assert_eq!(prios.len(), config.n_initiators);
            }
            let parsed = Recipe::from_json(&recipe.to_json()).expect("parses");
            assert_eq!(parsed, recipe);
        }
    }

    #[test]
    fn prog_schedules_only_appear_with_a_prog_port() {
        let config = NodeConfig::builder("noprog")
            .initiators(2)
            .targets(2)
            .build()
            .unwrap();
        for seed in 0..32u64 {
            let recipe = Recipe::random(&config, &mut StdRng::seed_from_u64(seed));
            assert!(recipe.prog_schedule.is_empty());
        }
    }
}
