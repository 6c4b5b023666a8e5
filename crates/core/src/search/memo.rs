//! The probe memo of one search cell.
//!
//! A cell is one prepared instance, one heuristic and one ε (and seed),
//! probed at many periods. LTF and R-LTF report the [`PeriodWindow`] each
//! run's decisions hold in; a probe at a period inside a recorded window
//! takes that run's verdict instead of solving again. Heuristics that
//! report no window are solved at every probe.

use super::SearchOptions;
use crate::api::PreparedInstance;
use crate::config::{AlgoConfig, PeriodWindow};
use crate::solver::Heuristic;
use ltf_schedule::Schedule;

/// The windowed runs of one cell: each window with the run's verdict
/// (`None` = infeasible) before any latency cap. Never shared across
/// cells, because a window only speaks for the configuration it was
/// recorded under.
#[derive(Default)]
pub(super) struct ProbeMemo {
    runs: Vec<(PeriodWindow, Option<Schedule>)>,
    /// Periods answered from a recorded window, in probe order.
    #[cfg(test)]
    hits: Vec<f64>,
    /// Probes the heuristic solved.
    #[cfg(test)]
    solves: usize,
}

impl ProbeMemo {
    /// The heuristic's verdict at `period` under `opts` (latency budget
    /// applied), reusing a recorded run whose window admits `period`.
    pub(super) fn try_period(
        &mut self,
        prep: &PreparedInstance<'_>,
        h: &dyn Heuristic,
        opts: &SearchOptions,
        period: f64,
    ) -> Option<Schedule> {
        let sched = match self.recorded(period) {
            Some(verdict) => {
                let reused = verdict.map(|s| s.with_period(period));
                #[cfg(test)]
                self.hits.push(period);
                reused?
            }
            None => self.solve(prep, h, opts, period)?,
        };
        super::within_budget(sched, opts)
    }

    /// The verdict of a recorded run whose window admits `period`. Only a
    /// finite, positive period can be admitted; any other is left to the
    /// heuristic's own config check.
    fn recorded(&self, period: f64) -> Option<Option<&Schedule>> {
        if !(period.is_finite() && period > 0.0) {
            return None;
        }
        self.runs
            .iter()
            .find(|(w, _)| w.admits(period))
            .map(|(_, s)| s.as_ref())
    }

    /// Solve at `period`, recording the verdict when the heuristic reports
    /// its window.
    fn solve(
        &mut self,
        prep: &PreparedInstance<'_>,
        h: &dyn Heuristic,
        opts: &SearchOptions,
        period: f64,
    ) -> Option<Schedule> {
        #[cfg(test)]
        {
            self.solves += 1;
        }
        let cfg = AlgoConfig::new(opts.epsilon, period).seeded(opts.seed);
        let (verdict, window) = h.schedule_windowed(prep, &cfg);
        let sched = verdict.ok();
        if let Some(w) = window {
            self.runs.push((w, sched.clone()));
        }
        sched
    }
}

#[cfg(test)]
mod tests {
    //! Check mode: every probe the memo answers is solved again from
    //! scratch and must match, and every recorded window is probed at its
    //! edges.

    use super::super::pareto::{cell, ParetoOptions};
    use super::*;
    use crate::config::ScheduleError;
    use crate::{FaultFree, Ltf, Rltf};
    use ltf_graph::generate::{fig1_diamond, fig2_workflow_variant, layered, LayeredConfig};
    use ltf_graph::TaskGraph;
    use ltf_platform::{CommMode, HeterogeneousConfig, Platform, Topology};
    use ltf_schedule::granularity::granularity_scale_factor;
    use ltf_schedule::EPS;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const HEURISTICS: [&dyn Heuristic; 3] = [&Rltf, &Ltf, &FaultFree];

    /// The calibrated random workload of the Pareto campaigns: 50–150
    /// layered tasks on 8 heterogeneous processors (or a Contended chain or
    /// star when `topology` names one), execution times scaled to the
    /// target granularity, the binding resource at 25 % of an ε = 1
    /// period of 20.
    fn workload(
        seed: u64,
        granularity: f64,
        topology: Option<(&str, f64)>,
    ) -> (TaskGraph, Platform) {
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = LayeredConfig {
            tasks: rng.gen_range(50..=150),
            ..Default::default()
        };
        let mut g = layered(&cfg, &mut rng);
        let p = match topology {
            None => HeterogeneousConfig {
                procs: 8,
                ..Default::default()
            }
            .build(&mut rng),
            Some((shape, delay)) => {
                let speeds: Vec<f64> = (0..8).map(|_| rng.gen_range(0.5..=1.0)).collect();
                let t = match shape {
                    "chain" => Topology::chain(speeds, delay),
                    _ => Topology::star(speeds, delay),
                };
                t.into_platform_with(CommMode::Contended).unwrap()
            }
        };
        if let Some(f) = granularity_scale_factor(&g, &p, granularity) {
            g.scale_exec_times(f);
        }
        let demand = (2.0 * g.total_exec() * p.mean_inv_speed())
            .max(2.0 * g.total_volume() * p.mean_delay());
        let rho = 0.25 * 8.0 * 20.0 / demand;
        g.scale_exec_times(rho);
        g.scale_volumes(rho);
        (g, p)
    }

    /// Probe and check counts of one family.
    #[derive(Default)]
    struct Tally {
        probes: usize,
        hits: usize,
    }

    fn fresh(
        prep: &PreparedInstance<'_>,
        h: &dyn Heuristic,
        opts: &SearchOptions,
        period: f64,
    ) -> Result<Schedule, ScheduleError> {
        h.schedule(
            prep,
            &AlgoConfig::new(opts.epsilon, period).seeded(opts.seed),
        )
    }

    /// `got` (a recorded verdict moved to `period`) equals a fresh solve at
    /// `period`, field for field.
    fn assert_same(
        prep: &PreparedInstance<'_>,
        h: &dyn Heuristic,
        opts: &SearchOptions,
        period: f64,
        got: Option<&Schedule>,
        what: &str,
    ) {
        let want = fresh(prep, h, opts, period);
        let ctx = format!("{} ε={} Δ'={period:e} ({what})", h.name(), opts.epsilon);
        match (got, want) {
            (None, Err(_)) => {}
            (Some(s), Ok(w)) => {
                let s = s.with_period(period);
                assert_eq!(s.to_data(), w.to_data(), "{ctx}: schedule differs");
                assert_eq!(s.period().to_bits(), w.period().to_bits(), "{ctx}");
                assert_eq!(s.num_stages(), w.num_stages(), "{ctx}");
            }
            (got, want) => panic!(
                "{ctx}: memo says feasible={}, fresh solve says {:?}",
                got.is_some(),
                want.err()
            ),
        }
    }

    fn up(x: f64) -> f64 {
        f64::from_bits(x.to_bits() + 1)
    }

    fn down(x: f64) -> f64 {
        f64::from_bits(x.to_bits() - 1)
    }

    /// Largest period `w` admits (it has a failed check), and smallest (it
    /// has a passed one): the window's edges, exact to the last float.
    fn edges(w: PeriodWindow) -> (Option<f64>, Option<f64>) {
        let hi = w.fail_min().is_finite().then(|| {
            let mut x = w.fail_min() - EPS;
            while !w.admits(x) {
                x = down(x);
            }
            while w.admits(up(x)) {
                x = up(x);
            }
            x
        });
        let lo = (w.pass_max().is_finite() && w.pass_max() - EPS > 0.0).then(|| {
            let mut x = w.pass_max() - EPS;
            while !w.admits(x) {
                x = up(x);
            }
            while w.admits(down(x)) {
                x = down(x);
            }
            x
        });
        (lo, hi)
    }

    /// Run every cell of the sweep through its own memo, re-solve every
    /// answered probe and both edges of every window, and count.
    fn check(
        g: &TaskGraph,
        p: &Platform,
        max_procs: usize,
        max_eps: u8,
        relax_steps: u32,
        iterations: u32,
    ) -> Tally {
        let mut tally = Tally::default();
        for m in 1..=max_procs.min(p.num_procs()) {
            let sub = p.prefix(m);
            let prep = PreparedInstance::new(g, &sub);
            for h in HEURISTICS {
                for eps in 0..=((m - 1) as u8).min(max_eps) {
                    let opts = SearchOptions {
                        epsilon: eps,
                        iterations,
                        ..Default::default()
                    };
                    let mut memo = ProbeMemo::default();
                    cell(&prep, m, h, &opts, relax_steps, &mut memo, &mut Vec::new());
                    tally.probes += memo.solves + memo.hits.len();
                    tally.hits += memo.hits.len();
                    for &period in &memo.hits {
                        let got = memo.recorded(period).expect("a hit stays admitted");
                        assert_same(&prep, h, &opts, period, got, "reused probe");
                    }
                    for (w, got) in &memo.runs {
                        let (lo, hi) = edges(*w);
                        if let Some(lo) = lo {
                            assert!(!w.admits(down(lo)));
                            assert_same(&prep, h, &opts, lo, got.as_ref(), "lowest admitted");
                        }
                        if let Some(hi) = hi {
                            assert!(!w.admits(up(hi)), "{hi:e} is not the window's top");
                            assert_same(&prep, h, &opts, hi, got.as_ref(), "highest admitted");
                        }
                    }
                }
            }
        }
        tally
    }

    /// The campaign-pareto shape: workload instances at three
    /// granularities, prefixes 1–3, ε 0–2, 20 bisection steps, 2 relaxed
    /// steps. The memo must answer at least half of the probes, so a
    /// refactor that silently stops reporting windows fails here.
    #[test]
    fn reused_probes_match_fresh_solves_on_the_workload() {
        let mut tally = Tally::default();
        for (seed, gran) in [(1, 0.5), (2, 1.0), (3, 2.0)] {
            let (g, p) = workload(seed, gran, None);
            let t = check(&g, &p, 3, 2, 2, 20);
            tally.probes += t.probes;
            tally.hits += t.hits;
        }
        assert!(
            2 * tally.hits >= tally.probes,
            "memo answered {} of {} probes",
            tally.hits,
            tally.probes
        );
    }

    /// The worked examples at the `ParetoOptions` defaults (every prefix,
    /// every ε, 40 bisection steps, 3 relaxed steps).
    #[test]
    fn reused_probes_match_fresh_solves_on_the_worked_examples() {
        let d = ParetoOptions::default();
        for (g, p) in [
            (fig1_diamond(), Platform::fig1_platform()),
            (fig2_workflow_variant(), Platform::homogeneous(8, 1.0, 1.0)),
        ] {
            let t = check(&g, &p, usize::MAX, u8::MAX, d.relax_steps, d.iterations);
            assert!(t.hits > 0);
        }
    }

    /// Contended chain and star platforms, where the per-link load check
    /// bounds the window too.
    #[test]
    fn reused_probes_match_fresh_solves_on_contended_platforms() {
        for (seed, topology) in [
            (7, ("chain", 0.5)),
            (7, ("star", 0.4)),
            (9001, ("chain", 0.5)),
            (9001, ("star", 0.4)),
        ] {
            let (g, p) = workload(seed, 1.0, Some(topology));
            assert!(check(&g, &p, 3, 2, 2, 20).hits > 0, "{topology:?}");
        }
    }

    /// A strategy that reports no window — a baseline, or a wrapper that
    /// only forwards `schedule` — is solved at every probe.
    #[test]
    fn windowless_heuristics_solve_every_probe() {
        struct Plain;
        impl Heuristic for Plain {
            fn name(&self) -> &'static str {
                "plain"
            }
            fn schedule(
                &self,
                inst: &PreparedInstance<'_>,
                cfg: &AlgoConfig,
            ) -> Result<Schedule, ScheduleError> {
                Rltf.schedule(inst, cfg)
            }
        }
        let (g, p) = (fig1_diamond(), Platform::fig1_platform());
        let prep = PreparedInstance::new(&g, &p);
        let opts = SearchOptions::default();
        let mut memo = ProbeMemo::default();
        cell(&prep, 4, &Plain, &opts, 3, &mut memo, &mut Vec::new());
        assert!(memo.solves > 0);
        assert!(memo.hits.is_empty() && memo.runs.is_empty());
        // The same cell under R-LTF itself reuses probes.
        let mut memo = ProbeMemo::default();
        cell(&prep, 4, &Rltf, &opts, 3, &mut memo, &mut Vec::new());
        assert!(!memo.hits.is_empty());
    }

    /// A config the instance check rejects never reaches the engine and
    /// reports no window; too few processors fails before any check, so
    /// its window admits every period.
    #[test]
    fn window_edge_cases() {
        let (g, p) = (fig1_diamond(), Platform::fig1_platform());
        let prep = PreparedInstance::new(&g, &p);
        let (verdict, window) = Rltf.schedule_windowed(&prep, &AlgoConfig::new(1, f64::NAN));
        assert!(matches!(verdict, Err(ScheduleError::BadConfig(_))));
        assert!(window.is_none());
        let (verdict, window) = Ltf.schedule_windowed(&prep, &AlgoConfig::new(9, 10.0));
        assert!(matches!(
            verdict,
            Err(ScheduleError::TooFewProcessors { .. })
        ));
        assert_eq!(window, Some(PeriodWindow::default()));
        // Non-finite periods are never answered from the memo.
        let mut memo = ProbeMemo::default();
        memo.runs.push((PeriodWindow::default(), None));
        assert!(memo.recorded(1.0).is_some());
        assert!(memo.recorded(f64::INFINITY).is_none());
        assert!(memo.recorded(0.0).is_none());
    }
}
