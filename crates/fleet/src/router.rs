//! Query-to-device routing policies.
//!
//! Every decision is a pure function of (policy state, candidate loads),
//! with deterministic tie-breaks (lowest device id) and a seeded RNG for
//! power-of-two-choices — routing is part of the byte-determinism
//! contract, not a scheduling heuristic left to chance.

use gpu_sim::snapshot::{BagError, Snap, SnapValue};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which device gets the next query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouterPolicy {
    /// Cycle through active devices regardless of load.
    RoundRobin,
    /// Send to the least-loaded active device (ties → lowest id).
    JoinShortestQueue,
    /// Sample two distinct active devices, pick the less loaded — the
    /// classic load-balancing result: most of JSQ's benefit at a fraction
    /// of its state inspection.
    PowerOfTwo,
    /// Join-shortest-queue restricted to devices holding the query's
    /// shard; falls back to the full active set (a shard miss) only when
    /// no replica-holding device is active.
    LocalityAware,
}

impl RouterPolicy {
    /// Every policy, in bench-grid order.
    pub const ALL: [RouterPolicy; 4] = [
        RouterPolicy::RoundRobin,
        RouterPolicy::JoinShortestQueue,
        RouterPolicy::PowerOfTwo,
        RouterPolicy::LocalityAware,
    ];

    /// Short label for journals and bench tables.
    pub fn label(&self) -> &'static str {
        match self {
            RouterPolicy::RoundRobin => "rr",
            RouterPolicy::JoinShortestQueue => "jsq",
            RouterPolicy::PowerOfTwo => "p2c",
            RouterPolicy::LocalityAware => "locality",
        }
    }
}

/// Stateful router: owns the round-robin cursor and the p2c sampler.
#[derive(Debug)]
pub struct Router {
    policy: RouterPolicy,
    rr_next: usize,
    rng: SamplerRng,
}

/// The p2c sampler's generator; snapshots as its four state words.
#[derive(Debug)]
struct SamplerRng(StdRng);

impl Snap for SamplerRng {
    fn save(&self) -> SnapValue {
        self.0.state().save()
    }

    fn load(&mut self, v: &SnapValue, name: &str) -> Result<(), BagError> {
        let mut words = [0u64; 4];
        words.load(v, name)?;
        self.0 = StdRng::from_state(words);
        Ok(())
    }
}

impl Router {
    /// A fresh router. `seed` only feeds the power-of-two sampler; the
    /// other policies are RNG-free.
    pub fn new(policy: RouterPolicy, seed: u64) -> Self {
        Router {
            policy,
            rr_next: 0,
            rng: SamplerRng(StdRng::seed_from_u64(seed ^ 0x70f2_c401_ce5a_11e7)),
        }
    }

    /// Routes one query. `active` is the ascending set of warm devices;
    /// `preferred` the ascending subset holding the query's shard (empty
    /// when none is active, or when admission control spilled the query
    /// off its locality). Load is sampled through `load` — queued plus
    /// in-flight queries on a device.
    ///
    /// # Panics
    ///
    /// Panics when `active` is empty (the autoscaler keeps ≥ 1 warm).
    pub fn route(
        &mut self,
        active: &[usize],
        preferred: &[usize],
        load: &mut dyn FnMut(usize) -> usize,
    ) -> usize {
        assert!(!active.is_empty(), "router needs at least one warm device");
        match self.policy {
            RouterPolicy::RoundRobin => {
                let d = active[self.rr_next % active.len()];
                self.rr_next += 1;
                d
            }
            RouterPolicy::JoinShortestQueue => Self::shortest(active, load),
            RouterPolicy::PowerOfTwo => {
                if active.len() == 1 {
                    return active[0];
                }
                let i = self.rng.0.random_range(0..active.len());
                let mut j = self.rng.0.random_range(0..active.len() - 1);
                if j >= i {
                    j += 1;
                }
                let (a, b) = (active[i.min(j)], active[i.max(j)]);
                // Lower load wins; ties go to the lower id (`a`).
                if load(b) < load(a) {
                    b
                } else {
                    a
                }
            }
            RouterPolicy::LocalityAware => {
                let pool = if preferred.is_empty() {
                    active
                } else {
                    preferred
                };
                Self::shortest(pool, load)
            }
        }
    }

    // Snapshot support: the round-robin cursor and the p2c sampler's RNG
    // words. The policy itself is configuration.
    gpu_sim::snap_fields! {
        pub fn export_state / import_state;
        rr_next,
        rng,
    }

    fn shortest(pool: &[usize], load: &mut dyn FnMut(usize) -> usize) -> usize {
        let mut best = pool[0];
        let mut best_load = load(best);
        for &d in &pool[1..] {
            let l = load(d);
            if l < best_load {
                best = d;
                best_load = l;
            }
        }
        best
    }
}

gpu_sim::snap_state!(Router);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_cycles_the_active_set() {
        let mut r = Router::new(RouterPolicy::RoundRobin, 1);
        let active = [0, 2, 3];
        let picks: Vec<usize> = (0..6).map(|_| r.route(&active, &[], &mut |_| 0)).collect();
        assert_eq!(picks, vec![0, 2, 3, 0, 2, 3]);
    }

    #[test]
    fn jsq_breaks_ties_toward_the_lowest_id() {
        let mut r = Router::new(RouterPolicy::JoinShortestQueue, 1);
        let loads = [5usize, 2, 2, 9];
        assert_eq!(r.route(&[0, 1, 2, 3], &[], &mut |d| loads[d]), 1);
    }

    #[test]
    fn p2c_is_deterministic_under_a_fixed_seed() {
        let pick = |seed| {
            let mut r = Router::new(RouterPolicy::PowerOfTwo, seed);
            let loads = [4usize, 0, 7, 1];
            (0..8)
                .map(|_| r.route(&[0, 1, 2, 3], &[], &mut |d| loads[d]))
                .collect::<Vec<_>>()
        };
        assert_eq!(pick(42), pick(42), "same seed, same routes");
        // Every pick is the less-loaded of some sampled pair — never the
        // *strictly* worst of the pair.
        let loads = [4usize, 0, 7, 1];
        let mut r = Router::new(RouterPolicy::PowerOfTwo, 7);
        for _ in 0..64 {
            let d = r.route(&[0, 1, 2, 3], &[], &mut |d| loads[d]);
            assert!(d < 4);
        }
    }

    #[test]
    fn locality_prefers_replica_holders_and_falls_back() {
        let mut r = Router::new(RouterPolicy::LocalityAware, 1);
        let loads = [0usize, 9, 3, 9];
        // Replica holders {1, 2}: picks 2 despite device 0 being idle.
        assert_eq!(r.route(&[0, 1, 2, 3], &[1, 2], &mut |d| loads[d]), 2);
        // No active replica: full-set JSQ (a shard miss).
        assert_eq!(r.route(&[0, 1, 2, 3], &[], &mut |d| loads[d]), 0);
    }
}
