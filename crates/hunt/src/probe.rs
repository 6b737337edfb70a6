//! One hunt probe: a random `(configuration, recipe, seed)` triple and
//! the differential run that decides whether it diverges.
//!
//! A probe reproduces exactly from `(campaign_seed, index)`: the pair is
//! hashed into a private RNG stream, and the configuration, the recipe
//! and the testbench seed are all drawn from that one stream in a fixed
//! order. Nothing else feeds the draw, so a `repro.json` needs only the
//! frozen artifacts — the replay never re-derives them.
//!
//! The differential run itself — build the RTL/BCA pair, arm the
//! checkers, classify failures differentially, fall back to the STBA
//! cycle comparison — lives in [`mutation::differential`], shared with
//! the promoted-reproducer catalogue so a promoted entry replays under
//! *exactly* the judge that found it.

use cdg::Recipe;
use rand::rngs::StdRng;
use rand::{RngCore as _, SeedableRng as _};
use stbus_protocol::NodeConfig;
use telemetry::Telemetry;

pub use mutation::differential::{DiffFinding as Finding, Injections};

/// One drawn probe, fully determined by `(campaign_seed, index)`.
#[derive(Clone, Debug)]
pub struct Probe {
    /// Position in the campaign (the second half of the draw key).
    pub index: u64,
    /// The drawn node configuration.
    pub config: NodeConfig,
    /// The drawn stimulus recipe (already normalized for `config`).
    pub recipe: Recipe,
    /// The drawn testbench seed.
    pub seed: u64,
}

/// SplitMix64 finalizer — the same mixer the compat RNG seeds through,
/// reused here to spread `(campaign_seed, index)` into independent
/// per-probe streams.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Draws probe `index` of the campaign keyed by `campaign_seed`.
pub fn draw_probe(campaign_seed: u64, index: u64) -> Probe {
    let mut rng = StdRng::seed_from_u64(splitmix(campaign_seed) ^ splitmix(!index));
    let config = catg::tests_lib::strategy::draw_config(&mut rng);
    let recipe = Recipe::random(&config, &mut rng);
    // Small seeds keep replay commands and reports human-readable.
    let seed = rng.next_u64() % 100_000;
    Probe {
        index,
        config,
        recipe,
        seed,
    }
}

/// Runs one differential probe: the recipe's spec on the RTL view and
/// the exact-fidelity BCA view with identical stimulus, protocol
/// checkers armed on both, then the cross-view STBA cycle comparison.
/// Returns `None` when the pair is clean and aligned.
pub fn run_probe(
    config: &NodeConfig,
    recipe: &Recipe,
    seed: u64,
    inject: &Injections,
    telemetry: &Telemetry,
) -> Option<Finding> {
    let spec = recipe.to_spec(mutation::promoted::PROBE_TEST);
    mutation::run_differential(config, &spec, seed, inject, telemetry)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_draws_are_deterministic_and_index_independent() {
        let a = draw_probe(1, 3);
        let b = draw_probe(1, 3);
        assert_eq!(a.config, b.config);
        assert_eq!(a.recipe, b.recipe);
        assert_eq!(a.seed, b.seed);
        let c = draw_probe(1, 4);
        assert!(c.config != a.config || c.recipe != a.recipe || c.seed != a.seed);
        let d = draw_probe(2, 3);
        assert!(d.config != a.config || d.recipe != a.recipe || d.seed != a.seed);
    }
}
