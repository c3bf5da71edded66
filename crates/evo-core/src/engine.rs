//! The single authoritative generation transition function, shared by
//! every backend (docs/ENGINE_CORE.md).
//!
//! The paper's central claim is that *one* model — Nature Agent schedule →
//! local game dynamics → comparison resolve → mutation broadcast (§V-B) —
//! runs unchanged on shared memory and across hundreds of thousands of
//! cores. This module is that model, once, split into three phases:
//!
//! 1. [`plan`] — the Nature Agent decides what happens this generation and,
//!    from that, what fitness data the generation needs ([`GenPlan`]). Pure
//!    in `(seed, generation)`; draws only the schedule streams
//!    (`Domain::Nature` id 0, `Domain::Mutation` id 0).
//! 2. A backend-supplied [`FitnessProvider`] runs the game dynamics and
//!    moves the required fitness values to the deciding side
//!    ([`Provided`]). Shared memory evaluates in place
//!    ([`LocalProvider`]); the distributed engine evaluates owned ranges
//!    and moves values over the wire. Draws only `Domain::GamePlay`
//!    streams; never mutates population state or statistics.
//! 3. [`apply`] — the Nature Agent resolves the plan against the provided
//!    fitness ([`decide`]) and commits the resulting [`GenDecision`]
//!    ([`commit`]): assignment writes, pool interns, [`Event`]s, and *all*
//!    [`RunStats`] accounting, in one place. Draws the resolution streams
//!    (`Domain::Nature` ids 1/2, `Domain::Mutation` id 1).
//!
//! [`Population`](crate::population::Population) drives all three phases
//! locally, and so does each fixation replicate
//! ([`FixationSpec::run_replicate`](crate::fixation::FixationSpec::run_replicate)),
//! over its own two-strategy provider. Every rank of the distributed engine
//! plans for itself, moves only the fitness the plan needs in phase 2, and
//! resolves and commits the identical [`GenDecision`] on its own replicated
//! table: rank 0 through [`apply`], a compute rank through [`decide`] and
//! [`commit`]. Because both backends execute this module's
//! functions in the same order with the same RNG streams, their
//! trajectories — records, assignments, fitness bits, and statistics — are
//! bit-identical.
//!
//! The same stream keying makes a
//! [`Checkpoint`](crate::record::Checkpoint) of pool + assignments + stats
//! the *complete* run state — no generator positions exist to save — which
//! is what checkpoint/restore and the distributed engine's degraded-run
//! recovery build on (docs/FAULT_TOLERANCE.md).

use crate::fitness::{ExecMode, FitnessPolicy, GameKernel, PairPayoff, Rows, TableMemo};
use crate::graph::GraphScope;
use crate::nature::{Event, GenSchedule, NatureAgent};
use crate::params::UpdateRule;
use crate::paycache::{PayoffCache, PayoffKind};
use crate::pool::{StratId, StrategyPool};
use crate::record::{GenerationRecord, RunStats};
use ipd::game::GameConfig;
use ipd::state::StateSpace;
use ipd::strategy::Strategy;

/// How much fitness evaluation the generation performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalScope {
    /// No games this generation (`OnDemand` with nothing scheduled).
    None,
    /// Only the scheduled pair's fitness (`OnDemand` + pairwise
    /// comparison): the paper's selected SSets are the only ones whose
    /// scores matter.
    Pair {
        /// Teacher SSet index.
        teacher: u32,
        /// Learner SSet index.
        learner: u32,
    },
    /// Every SSet's fitness.
    Full,
    /// Per-vertex payoffs over an explicit topology
    /// ([`crate::graph::Lattice`]): each vertex accumulates game payoffs
    /// against its graph neighbours (plus itself when
    /// [`GraphScope::include_self`]), in the lattice's canonical neighbour
    /// order. The scope carries only the plan-level descriptor; the
    /// adjacency lives with the provider that owns the population
    /// (docs/GRAPH.md).
    Neighborhood(GraphScope),
}

/// What fitness data must reach the Nature Agent for resolution. Distinct
/// from [`EvalScope`]: under `EveryGeneration` + pairwise comparison the
/// whole vector is *evaluated* but only the pair *travels* (the paper's
/// point-to-point fitness returns, §V-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FitnessNeed {
    /// Nothing: no comparison is scheduled.
    None,
    /// The scheduled pair's two values.
    Pair {
        /// Teacher SSet index.
        teacher: u32,
        /// Learner SSet index.
        learner: u32,
    },
    /// The full fitness vector (Moran / ImitateBest).
    Full,
}

/// The Nature Agent's plan for one generation: the event schedule plus the
/// derived fitness requirements every backend agrees on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenPlan {
    /// Generation index this plan is for.
    pub generation: u64,
    /// Update rule in force.
    pub rule: UpdateRule,
    /// Fitness evaluation policy in force.
    pub policy: FitnessPolicy,
    /// The scheduled events (PC pair, mutation target).
    pub schedule: GenSchedule,
    /// How much fitness the backend must evaluate.
    pub eval: EvalScope,
    /// What fitness data must reach the Nature Agent.
    pub need: FitnessNeed,
}

/// Phase 1: derive the generation's plan. Pure in `(seed, generation)` —
/// every backend, and every rank of the distributed one, computes the
/// identical plan.
pub fn plan(
    nature: &NatureAgent,
    num_ssets: u32,
    rule: UpdateRule,
    policy: FitnessPolicy,
    generation: u64,
) -> GenPlan {
    let schedule = nature.schedule(num_ssets, generation);
    let need = match (schedule.pc, rule) {
        (None, _) => FitnessNeed::None,
        (Some((teacher, learner)), UpdateRule::PairwiseComparison) => {
            FitnessNeed::Pair { teacher, learner }
        }
        (Some(_), UpdateRule::Moran | UpdateRule::ImitateBest) => FitnessNeed::Full,
    };
    let eval = match policy {
        FitnessPolicy::EveryGeneration => EvalScope::Full,
        FitnessPolicy::OnDemand => match need {
            FitnessNeed::None => EvalScope::None,
            FitnessNeed::Pair { teacher, learner } => EvalScope::Pair { teacher, learner },
            FitnessNeed::Full => EvalScope::Full,
        },
    };
    GenPlan {
        generation,
        rule,
        policy,
        schedule,
        eval,
        need,
    }
}

/// Phase 1 for graph-structured populations: every generation evaluates
/// the full per-vertex payoff field over the topology `scope` describes
/// and resolves it locally at each vertex — there is no Nature-Agent event
/// schedule, so `schedule` is empty and `need` is [`FitnessNeed::None`]
/// (nothing travels to a central decider; per-cell update draws are
/// replicated from counter-based `Domain::Graph` streams). Pure in
/// `(scope, generation)` — it draws nothing at all.
pub fn graph_plan(scope: GraphScope, generation: u64) -> GenPlan {
    GenPlan {
        generation,
        // The well-mixed rule/policy fields are inert under a Neighborhood
        // scope; PairwiseComparison + OnDemand are the neutral values
        // (OnDemand keeps fitness_summary record columns policy-stable).
        rule: UpdateRule::PairwiseComparison,
        policy: FitnessPolicy::OnDemand,
        schedule: GenSchedule {
            pc: None,
            mutation: None,
        },
        eval: EvalScope::Neighborhood(scope),
        need: FitnessNeed::None,
    }
}

/// The fitness data a provider delivered to the deciding side.
#[derive(Debug, Clone, PartialEq)]
pub enum FitnessView {
    /// Nothing was needed here (or this side is not the decider).
    None,
    /// The scheduled pair's values.
    Pair {
        /// Teacher's relative fitness.
        teacher: f64,
        /// Learner's relative fitness.
        learner: f64,
    },
    /// The full per-SSet fitness vector.
    Full(Vec<f64>),
}

/// Phase-2 output: the fitness view plus the evaluation's cost.
#[derive(Debug, Clone, PartialEq)]
pub struct Provided {
    /// Fitness values available to the decider.
    pub view: FitnessView,
    /// Iterated games the evaluation under [`GenPlan::eval`] cost, for
    /// [`RunStats::games_played`]. Reported by the provider because only it
    /// knows its evaluation strategy (dedup, expected-value, naive).
    pub games: u64,
}

/// Phase 2: a backend's game-dynamics engine. Implementations evaluate
/// exactly what [`GenPlan::eval`] asks for and deliver what
/// [`GenPlan::need`] requires; they must not mutate population state,
/// statistics, or any RNG stream outside `Domain::GamePlay`.
pub trait FitnessProvider {
    /// Run the generation's game dynamics per `plan`.
    fn provide(&mut self, plan: &GenPlan) -> Provided;
}

/// The shared-memory provider: evaluates in place over the population's
/// own tables, honouring the evaluation knobs (dedup, expected-value
/// fitness). [`PairPayoff::evaluate_rows`] picks the evaluator, as
/// docs/PERFORMANCE.md §2.2 tabulates.
#[derive(Debug)]
pub struct LocalProvider<'a> {
    /// State space of all strategies.
    pub space: &'a StateSpace,
    /// Per-SSet strategy ids.
    pub assignments: &'a [StratId],
    /// The interning pool.
    pub pool: &'a StrategyPool,
    /// Game configuration.
    pub game: &'a GameConfig,
    /// Master seed.
    pub seed: u64,
    /// Read by nothing: the schedule follows from the plan ([`ExecMode`]
    /// says why the field stays).
    pub exec_mode: ExecMode,
    /// Use the deduplicated evaluator when sound.
    pub dedup: bool,
    /// Read by nothing: [`PairPayoff`] plays every deterministic game
    /// through one kernel ([`GameKernel`] says why the field stays).
    pub kernel: GameKernel,
    /// Evaluate exact expected payoffs instead of one sampled realisation.
    pub expected_fitness: bool,
    /// Cross-generation pairwise payoff memo-cache
    /// ([`crate::paycache::PayoffCache`]). Cost-only: results are
    /// bit-identical with the cache present, absent, cold, or warm.
    pub cache: Option<&'a PayoffCache>,
}

impl FitnessProvider for LocalProvider<'_> {
    fn provide(&mut self, plan: &GenPlan) -> Provided {
        self.evaluate(plan, &mut None)
    }
}

impl LocalProvider<'_> {
    /// [`FitnessProvider::provide`] with the caller's [`TableMemo`]: the
    /// plan's rows through [`PairPayoff::evaluate_rows`], a full evaluation
    /// inside a `population.fitness` span.
    pub(crate) fn evaluate(&self, plan: &GenPlan, memo: &mut Option<TableMemo>) -> Provided {
        let rows = match plan.eval {
            EvalScope::None => return Provided { view: FitnessView::None, games: 0 },
            EvalScope::Pair { teacher, learner } => Rows::Pair([Some(teacher as usize), Some(learner as usize)]),
            EvalScope::Full => Rows::All,
            EvalScope::Neighborhood(_) => {
                // detlint: allow(panic-path, reason = "invariant: graph_plan() plans are driven only by graph-structured populations, whose providers implement Neighborhood; routing one into the well-mixed LocalProvider is a backend wiring bug, not a runtime condition")
                panic!("LocalProvider is well-mixed; Neighborhood plans need a graph provider")
            }
        };
        let _span = (rows == Rows::All).then(|| obs::span("population.fitness"));
        let by_census = self.expected_fitness.then_some(PayoffKind::Expected).or(self.dedup.then_some(PayoffKind::Sampled));
        let pairs = PairPayoff::new(self.space, self.pool, self.game, self.cache);
        let (values, games) = pairs.evaluate_rows(self.assignments, self.seed, plan.generation, by_census, &rows, memo);
        let view = match rows {
            Rows::Pair(_) => FitnessView::Pair {
                teacher: values[0],
                learner: values[1],
            },
            _ => FitnessView::Full(values),
        };
        Provided { view, games }
    }
}

/// The rule outcome of one generation, before it is written anywhere.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RuleDecision {
    /// No comparison was scheduled.
    None,
    /// A pairwise comparison resolved through the Fermi rule.
    Pc {
        /// Teacher SSet index.
        teacher: u32,
        /// Learner SSet index.
        learner: u32,
        /// Teacher's relative fitness π_T.
        teacher_fitness: f64,
        /// Learner's relative fitness π_L.
        learner_fitness: f64,
        /// The Fermi adoption probability that was used.
        p: f64,
        /// Whether the learner adopts the teacher's strategy.
        adopted: bool,
    },
    /// A Moran birth-death step.
    Moran {
        /// The reproducing SSet.
        parent: u32,
        /// The replaced SSet.
        victim: u32,
    },
    /// Best-takes-over imitation.
    ImitateBest {
        /// The fittest SSet (lowest index on ties).
        best: u32,
        /// The imitating SSet.
        learner: u32,
    },
}

/// Everything the Nature Agent decided for one generation. Self-contained:
/// committing it needs no fitness data and no RNG, and every rank that
/// decides from the same plan, fitness and table decides the identical
/// update.
#[derive(Debug, Clone, PartialEq)]
pub struct GenDecision {
    /// The rule outcome.
    pub rule: RuleDecision,
    /// A scheduled mutation's target and its freshly generated strategy
    /// ("this strategy along with the SSet identifier is then transmitted
    /// to all agents", §V-B).
    pub mutation: Option<(u32, Strategy)>,
}

fn full_view<'a>(view: &'a FitnessView, rule: &str) -> &'a [f64] {
    match view {
        FitnessView::Full(v) => v,
        // detlint: allow(panic-path, reason = "invariant: plan() emits EvalScope::Everyone for exactly the rules routed here, and every FitnessProvider answers Everyone with Full; a mismatch is a provider implementation bug, not a runtime condition")
        other => panic!("{rule} needs the full fitness vector, provider gave {other:?}"),
    }
}

/// Resolve the plan against the provided fitness. The *only* call sites of
/// [`NatureAgent::resolve_pc`], [`NatureAgent::moran_pick`],
/// [`NatureAgent::imitate_best_pick`], and
/// [`NatureAgent::mutation_strategy`] in the well-mixed engines live here.
/// Reads population state but never writes it.
pub fn decide(
    nature: &NatureAgent,
    space: &StateSpace,
    plan: &GenPlan,
    view: &FitnessView,
    assignments: &[StratId],
    pool: &StrategyPool,
) -> GenDecision {
    let gen = plan.generation;
    let rule = match (plan.schedule.pc, plan.rule) {
        (None, _) => RuleDecision::None,
        (Some((teacher, learner)), UpdateRule::PairwiseComparison) => {
            let (ft, fl) = match view {
                FitnessView::Pair { teacher, learner } => (*teacher, *learner),
                FitnessView::Full(v) => (v[teacher as usize], v[learner as usize]),
                FitnessView::None => {
                    // detlint: allow(panic-path, reason = "invariant: plan() sets EvalScope::Pair whenever it schedules a pairwise comparison, and providers answer Pair with Pair or Full; None here is a contract break in the provider")
                    panic!("pairwise comparison scheduled but no fitness provided")
                }
            };
            let (p, adopted) = nature.resolve_pc(ft, fl, gen);
            RuleDecision::Pc {
                teacher,
                learner,
                teacher_fitness: ft,
                learner_fitness: fl,
                p,
                adopted,
            }
        }
        (Some(_), UpdateRule::Moran) => {
            let (parent, victim) = nature.moran_pick(full_view(view, "Moran"), gen);
            RuleDecision::Moran { parent, victim }
        }
        (Some(_), UpdateRule::ImitateBest) => {
            let (best, learner) = nature.imitate_best_pick(full_view(view, "ImitateBest"), gen);
            RuleDecision::ImitateBest { best, learner }
        }
    };
    let mutation = plan.schedule.mutation.map(|target| {
        // The mutation operator reads its target's strategy as of *after*
        // the rule's assignment write (commit order). Follow the pending
        // copy without mutating anything here.
        let source = match rule {
            RuleDecision::Pc {
                teacher,
                learner,
                adopted: true,
                ..
            } if learner == target => teacher,
            RuleDecision::Moran { parent, victim } if victim == target => parent,
            RuleDecision::ImitateBest { best, learner } if learner == target => best,
            _ => target,
        };
        let current = (**pool.get(assignments[source as usize])).clone();
        (target, nature.mutation_strategy(space, gen, &current))
    });
    GenDecision { rule, mutation }
}

/// Commit a decision: assignment writes, pool interns, the generation's
/// [`Event`]s, and the event counters in `stats`. Deterministic and
/// RNG-free, so every rank of the distributed engine commits its decision
/// identically (compute ranks pass a throwaway `stats`).
pub fn commit(
    decision: &GenDecision,
    assignments: &mut [StratId],
    pool: &mut StrategyPool,
    stats: &mut RunStats,
) -> Vec<Event> {
    let mut events = Vec::new();
    match decision.rule {
        RuleDecision::None => {}
        RuleDecision::Pc {
            teacher,
            learner,
            teacher_fitness,
            learner_fitness,
            p,
            adopted,
        } => {
            if adopted {
                assignments[learner as usize] = assignments[teacher as usize];
            }
            stats.pc_events += 1;
            stats.adoptions += adopted as u64;
            events.push(Event::PairwiseComparison {
                teacher,
                learner,
                teacher_fitness,
                learner_fitness,
                p,
                adopted,
            });
        }
        RuleDecision::Moran { parent, victim } => {
            assignments[victim as usize] = assignments[parent as usize];
            stats.pc_events += 1;
            stats.adoptions += (parent != victim) as u64;
            events.push(Event::Moran { parent, victim });
        }
        RuleDecision::ImitateBest { best, learner } => {
            assignments[learner as usize] = assignments[best as usize];
            stats.pc_events += 1;
            stats.adoptions += (best != learner) as u64;
            events.push(Event::ImitateBest { best, learner });
        }
    }
    if let Some((target, strategy)) = &decision.mutation {
        let id = pool.intern(strategy.clone());
        assignments[*target as usize] = id;
        stats.mutations += 1;
        events.push(Event::Mutation {
            sset: *target,
            strategy: id,
        });
    }
    events
}

/// What one generation did to the population, for the record layer.
#[derive(Debug, Clone, PartialEq)]
pub struct GenDelta {
    /// The decision that was committed.
    pub decision: GenDecision,
    /// The events it produced, in commit order.
    pub events: Vec<Event>,
}

impl GenDelta {
    /// Build the generation's record — the only constructor the engines
    /// use, so record content is a property of the core, not of a backend
    /// loop.
    pub fn into_record(
        self,
        generation: u64,
        mean_fitness: Option<f64>,
        max_fitness: Option<f64>,
        distinct_strategies: usize,
    ) -> GenerationRecord {
        GenerationRecord {
            generation,
            events: self.events,
            mean_fitness,
            max_fitness,
            distinct_strategies,
        }
    }
}

/// Phase 3: resolve and commit one generation, owning *all* `RunStats`
/// accounting — evaluation counts keyed on the plan (so backends that
/// evaluate without moving values still count them), event counters from
/// [`commit`], and the generation counter — and the run's obs counts of
/// the decision: one `fermi_updates` per resolved comparison, one
/// `mutations` per drawn mutant. A replica that decides the same
/// generation again (a distributed compute rank) calls [`decide`] and
/// [`commit`] instead, so a run counts each decision once.
pub fn apply(
    nature: &NatureAgent,
    space: &StateSpace,
    plan: &GenPlan,
    provided: &Provided,
    assignments: &mut [StratId],
    pool: &mut StrategyPool,
    stats: &mut RunStats,
) -> GenDelta {
    if plan.eval != EvalScope::None {
        stats.fitness_evaluations += 1;
        stats.games_played += provided.games;
    }
    let decision = decide(nature, space, plan, &provided.view, assignments, pool);
    let counters = obs::counters();
    counters.add(obs::Counter::FermiUpdates, matches!(decision.rule, RuleDecision::Pc { .. }) as u64);
    counters.add(obs::Counter::Mutations, decision.mutation.is_some() as u64);
    let events = commit(&decision, assignments, pool, stats);
    stats.generations += 1;
    GenDelta { decision, events }
}

/// Record-layer fitness summary: mean and max of the evaluated vector, or
/// `None` when the policy does not promise per-generation fitness in
/// records (`OnDemand` reports none even in generations a full-vector rule
/// forced an evaluation — record shape is policy-stable).
pub fn fitness_summary(plan: &GenPlan, view: &FitnessView) -> (Option<f64>, Option<f64>) {
    match (plan.policy, view) {
        (FitnessPolicy::EveryGeneration, FitnessView::Full(v)) => {
            let n = v.len() as f64;
            (
                Some(v.iter().sum::<f64>() / n),
                Some(v.iter().cloned().fold(f64::MIN, f64::max)),
            )
        }
        _ => (None, None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Params;

    fn nature(seed: u64, pc_rate: f64, mutation_rate: f64) -> NatureAgent {
        NatureAgent::from_params(&Params {
            seed,
            pc_rate,
            mutation_rate,
            ..Params::default()
        })
    }

    #[test]
    fn plan_derives_eval_and_need_consistently() {
        let n = nature(1, 1.0, 1.0);
        for rule in [
            UpdateRule::PairwiseComparison,
            UpdateRule::Moran,
            UpdateRule::ImitateBest,
        ] {
            for policy in [FitnessPolicy::EveryGeneration, FitnessPolicy::OnDemand] {
                for g in 0..20 {
                    let p = plan(&n, 8, rule, policy, g);
                    assert_eq!(p.generation, g);
                    assert_eq!(p.schedule, n.schedule(8, g));
                    match (p.schedule.pc, rule) {
                        (None, _) => assert_eq!(p.need, FitnessNeed::None),
                        (Some((t, l)), UpdateRule::PairwiseComparison) => {
                            assert_eq!(p.need, FitnessNeed::Pair { teacher: t, learner: l });
                        }
                        (Some(_), _) => assert_eq!(p.need, FitnessNeed::Full),
                    }
                    if policy == FitnessPolicy::EveryGeneration {
                        assert_eq!(p.eval, EvalScope::Full);
                    }
                }
            }
        }
    }

    #[test]
    fn on_demand_plan_skips_eval_only_without_events() {
        let quiet = nature(2, 0.0, 0.0);
        let p = plan(
            &quiet,
            8,
            UpdateRule::PairwiseComparison,
            FitnessPolicy::OnDemand,
            0,
        );
        assert_eq!(p.eval, EvalScope::None);

        let busy = nature(2, 1.0, 0.0);
        let p = plan(&busy, 8, UpdateRule::Moran, FitnessPolicy::OnDemand, 0);
        assert_eq!(p.eval, EvalScope::Full, "Moran needs the whole vector");
    }

    #[test]
    fn mutation_decision_reads_post_rule_strategy() {
        // Force a decision where the rule copies onto the mutation target:
        // the mutation must perturb the *copied* strategy (commit order),
        // exactly as if decide ran after the write.
        use crate::params::MutationKind;
        let space = StateSpace::new(1).unwrap();
        let mut pool = StrategyPool::new();
        let a = pool.intern(Strategy::Pure(ipd::classic::all_c(&space)));
        let b = pool.intern(Strategy::Pure(ipd::classic::all_d(&space)));
        let assignments = vec![a, b];
        let mut n = nature(3, 1.0, 1.0);
        n.mutation_kind = MutationKind::PointFlip { states: 1 };

        // Find a generation whose schedule copies parent->victim onto the
        // mutation target under Moran.
        for g in 0..500 {
            let p = plan(&n, 2, UpdateRule::Moran, FitnessPolicy::EveryGeneration, g);
            let (Some(_), Some(target)) = (p.schedule.pc, p.schedule.mutation) else {
                continue;
            };
            let view = FitnessView::Full(vec![1.0, 0.0]);
            let d = decide(&n, &space, &p, &view, &assignments, &pool);
            let RuleDecision::Moran { parent, victim } = d.rule else {
                panic!("Moran plan must decide Moran")
            };
            if victim != target || parent == victim {
                continue;
            }
            // The mutation must be one flip away from the *parent's*
            // strategy, which the commit copies onto the target first.
            let (_, strat) = d.mutation.expect("mutation scheduled");
            let Strategy::Pure(parent_strat) =
                (**pool.get(assignments[parent as usize])).clone()
            else {
                panic!("pure pool")
            };
            let Strategy::Pure(mutated) = strat else {
                panic!("pure mutation")
            };
            assert_eq!(mutated.hamming(&parent_strat), 1);
            return;
        }
        panic!("no generation with victim == mutation target in 500 draws");
    }

    #[test]
    fn commit_is_rng_free_and_repeatable() {
        let space = StateSpace::new(1).unwrap();
        let mut pool_a = StrategyPool::new();
        let ids: Vec<StratId> = (0..4)
            .map(|i| {
                pool_a.intern(if i % 2 == 0 {
                    Strategy::Pure(ipd::classic::all_c(&space))
                } else {
                    Strategy::Pure(ipd::classic::all_d(&space))
                })
            })
            .collect();
        let mut pool_b = pool_a.clone();
        let decision = GenDecision {
            rule: RuleDecision::Moran {
                parent: 1,
                victim: 0,
            },
            mutation: Some((2, Strategy::Pure(ipd::classic::all_d(&space)))),
        };
        let mut asg_a = ids.clone();
        let mut asg_b = ids;
        let mut stats_a = RunStats::default();
        let mut stats_b = RunStats::default();
        let ev_a = commit(&decision, &mut asg_a, &mut pool_a, &mut stats_a);
        let ev_b = commit(&decision, &mut asg_b, &mut pool_b, &mut stats_b);
        assert_eq!(ev_a, ev_b);
        assert_eq!(asg_a, asg_b);
        assert_eq!(stats_a, stats_b);
        assert_eq!(stats_a.pc_events, 1);
        assert_eq!(stats_a.adoptions, 1);
        assert_eq!(stats_a.mutations, 1);
        assert_eq!(asg_a[0], asg_a[1], "victim copied parent");
    }

    #[test]
    fn graph_plan_is_pure_inert_and_broadcast_free() {
        let scope = GraphScope {
            vertices: 9,
            include_self: true,
        };
        let p = graph_plan(scope, 5);
        assert_eq!(p.generation, 5);
        assert_eq!(p.eval, EvalScope::Neighborhood(scope));
        assert_eq!(p.need, FitnessNeed::None);
        assert_eq!(p.schedule, GenSchedule { pc: None, mutation: None }, "no Nature events");
        assert_eq!(p, graph_plan(scope, 5), "pure in (scope, generation)");
        assert_ne!(p, graph_plan(scope, 6));
    }

    #[test]
    fn fitness_summary_is_policy_stable() {
        let n = nature(4, 1.0, 0.0);
        let view = FitnessView::Full(vec![1.0, 3.0]);
        let every = plan(&n, 2, UpdateRule::Moran, FitnessPolicy::EveryGeneration, 0);
        let (mean, max) = fitness_summary(&every, &view);
        assert_eq!(mean, Some(2.0));
        assert_eq!(max, Some(3.0));
        // OnDemand evaluated the same vector (Moran forces it) but records
        // stay shape-stable: no per-generation fitness columns.
        let lazy = plan(&n, 2, UpdateRule::Moran, FitnessPolicy::OnDemand, 0);
        assert_eq!(fitness_summary(&lazy, &view), (None, None));
    }
}
