//! The experiment harness: regenerates every table of DESIGN.md §2
//! (F1–F3, E1–E16), printing paper-claim vs measured shape. Run all:
//!
//! ```text
//! cargo run --release -p dmp-bench --bin experiments
//! ```
//!
//! or a subset: `... --bin experiments f3 e4 e10`. A name that is not a
//! table (`f1`–`f3`, `e1`–`e16`) is refused on stderr with exit code 2.
//! Everything goes to stdout; the binary opens no socket and writes no
//! file. Performance numbers come from `marketbench`
//! (`/BENCHMARK.json`), not from here.

use std::collections::HashMap;

use rand::SeedableRng;

use dmp_bench::harness::{f2, f3, pct, ExperimentTable};
use dmp_core::license::License;
use dmp_core::market::{DataMarket, MarketConfig};
use dmp_discovery::{IndexBuilder, MetadataEngine};
use dmp_integration::dod::{DodEngine, TargetSpec};
use dmp_integration::fusion::{align, resolve, FusionStrategy, TruthDiscovery};
use dmp_integration::mapping;
use dmp_mechanism::allocation::Bid;
use dmp_mechanism::design::{empirical_ic_check, MarketDesign};
use dmp_mechanism::elicitation::ExPostMechanism;
use dmp_mechanism::query_pricing::{
    find_arbitrage, optimize_uniform_pricing, revenue, Demand, NaivePricing, PriceFunction,
    WeightedCoveragePricing,
};
use dmp_mechanism::wtp::{PriceCurve, TaskKind, WtpFunction};
use dmp_privacy::dp::{perturb_numeric_column, DpParams};
use dmp_relation::{DataType, DatasetId, RelationBuilder, Value};
use dmp_simulator::agents::{BuyerStrategy, SellerStrategy};
use dmp_simulator::engine::{SimConfig, Simulation};
use dmp_simulator::scenario::Scenario;
use dmp_simulator::workload::{generate, WorkloadConfig};
use dmp_tasks::classifier::ClassifierTask;
use dmp_tasks::synth::{gaussian_blobs, intro_example, synthetic_lake};
use dmp_tasks::Task;
use dmp_valuation::banzhaf::leave_one_out;
use dmp_valuation::knn_shapley::{knn_shapley, knn_utility, LabeledPoint};
use dmp_valuation::shapley::{exact_shapley, max_abs_error, monte_carlo_shapley, CharacteristicFn};
use dmp_valuation::sharing::total_shared;

/// Every table the suite prints, in print order.
const TABLES: &[(&str, fn())] = &[
    ("f1", f1_pipeline),
    ("f2", f2_dmms_pipeline),
    ("f3", f3_mashup_builder),
    ("e1", e1_truthfulness),
    ("e2", e2_intro_example),
    ("e3", e3_ex_post),
    ("e4", e4_shapley),
    ("e5", e5_revenue_sharing),
    ("e6", e6_adversarial),
    ("e7", e7_throughput),
    ("e8", e8_extrinsic_value),
    ("e9", e9_privacy_value),
    ("e10", e10_query_pricing),
    ("e11", e11_opportunists),
    ("e12", e12_market_kinds),
    ("e13", e13_fusion),
    ("e14", e14_negotiation),
    ("e15", e15_recommendations),
    ("e16", e16_licensing),
];

/// The tables `args` names (all of them when it is empty), in suite
/// order; `Err` carries the arguments that name no table.
fn select(args: &[String]) -> Result<Vec<fn()>, Vec<String>> {
    let unknown: Vec<String> = args
        .iter()
        .filter(|a| TABLES.iter().all(|(name, _)| name != a))
        .cloned()
        .collect();
    if !unknown.is_empty() {
        return Err(unknown);
    }
    Ok(TABLES
        .iter()
        .filter(|(name, _)| args.is_empty() || args.iter().any(|a| a == name))
        .map(|&(_, run)| run)
        .collect())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).map(|a| a.to_lowercase()).collect();
    let tables = select(&args).unwrap_or_else(|unknown| {
        let valid: Vec<&str> = TABLES.iter().map(|(name, _)| *name).collect();
        eprintln!(
            "experiments: no table named {}; valid tables: {}",
            unknown.join(", "),
            valid.join(" ")
        );
        std::process::exit(2);
    });

    println!("data-market-platform experiment suite (DESIGN.md section 2)\n");
    for run in tables {
        run();
    }
}

/// F1 — Fig. 1: the same design object drives the simulator and a
/// deployed DMMS.
fn f1_pipeline() {
    let mut t = ExperimentTable::new(
        "F1  Fig.1 pipeline: design -> simulate -> deploy",
        &[
            "design",
            "sim tx",
            "sim revenue",
            "sim welfare",
            "deploy tx",
            "deploy revenue",
        ],
    );
    for (name, market) in [
        ("internal-welfare", MarketConfig::internal()),
        (
            "external-posted",
            MarketConfig::external(5).with_design(MarketDesign::posted_price_baseline(20.0)),
        ),
    ] {
        // Simulate (Fig. 1 (3)).
        let sim = Scenario::market_kind(7, market.clone(), name).run();
        // Deploy (Fig. 1 (4)) and push one real workload through.
        let deployed = DataMarket::new(market);
        let w = generate(&WorkloadConfig {
            n_sellers: 4,
            n_buyers: 6,
            seed: 7,
            ..Default::default()
        });
        for (seller, tables) in &w.inventories {
            let h = deployed.seller(seller);
            for table in tables {
                let _ = h.share(table.clone());
            }
        }
        for d in &w.demands {
            let b = deployed.buyer(&d.buyer);
            b.deposit(1_000.0);
            let wtp = WtpFunction::simple(
                d.buyer.clone(),
                d.attributes.iter().cloned(),
                PriceCurve::Linear {
                    min_satisfaction: 0.2,
                    max_price: d.valuation,
                },
            );
            let _ = deployed.submit_wtp(wtp);
        }
        let report = deployed.run_round();
        t.row(vec![
            name.into(),
            sim.metrics.transactions.to_string(),
            f2(sim.metrics.revenue),
            f2(sim.metrics.welfare),
            report.sales.len().to_string(),
            f2(report.revenue),
        ]);
    }
    t.print();
}

/// F2 — Fig. 2: one full transaction round vs market size.
fn f2_dmms_pipeline() {
    let mut t = ExperimentTable::new(
        "F2  DMMS pipeline: one round vs market size",
        &["datasets", "offers", "sales"],
    );
    for (n_sellers, n_buyers) in [(5usize, 5usize), (10, 20), (20, 40)] {
        let market = DataMarket::new(
            MarketConfig::external(1).with_design(MarketDesign::posted_price_baseline(10.0)),
        );
        let w = generate(&WorkloadConfig {
            n_sellers,
            n_buyers,
            n_topics: 4,
            rows: 100,
            seed: 3,
            ..Default::default()
        });
        let mut datasets = 0;
        for (seller, tables) in &w.inventories {
            let h = market.seller(seller);
            for table in tables {
                if h.share(table.clone()).is_ok() {
                    datasets += 1;
                }
            }
        }
        for d in &w.demands {
            let b = market.buyer(&d.buyer);
            b.deposit(10_000.0);
            let _ = market.submit_wtp(WtpFunction::simple(
                d.buyer.clone(),
                d.attributes.iter().cloned(),
                PriceCurve::Linear {
                    min_satisfaction: 0.2,
                    max_price: d.valuation,
                },
            ));
        }
        let report = market.run_round();
        t.row(vec![
            datasets.to_string(),
            n_buyers.to_string(),
            report.sales.len().to_string(),
        ]);
    }
    t.print();
}

/// F3 — Fig. 3: profile -> index -> DoD pipeline scaling.
fn f3_mashup_builder() {
    let mut t = ExperimentTable::new(
        "F3  Mashup Builder: index build + DoD vs lake size",
        &["tables", "columns", "join edges", "candidates"],
    );
    for n_tables in [50usize, 200, 500] {
        let lake = synthetic_lake(n_tables, 8, 50, 9);
        let engine = MetadataEngine::new();
        engine.register_batch("steward", lake);
        let edges = IndexBuilder::new().build(&engine).relationships.len();
        let spec = TargetSpec::with_attributes(["topic0_id", "attr_0_x", "attr_8_x"]);
        let cands = DodEngine::new(&engine)
            .find_mashups(&spec)
            .map(|c| c.len())
            .unwrap_or(0);
        t.row(vec![
            n_tables.to_string(),
            (n_tables * 3).to_string(),
            edges.to_string(),
            cands.to_string(),
        ]);
    }
    t.print();
}

/// E1 — §3.2.1: which allocation/payment pairs are gameable?
fn e1_truthfulness() {
    let mut t = ExperimentTable::new(
        "E1  Incentive compatibility of allocation/payment designs",
        &["design", "max deviation gain", "IC?"],
    );
    // Irregular valuations: a big gap below the top bidder makes the
    // shading incentive of non-truthful rules visible on a finite grid.
    let valuations: Vec<f64> = vec![
        12.0, 19.0, 33.0, 47.0, 52.0, 58.0, 64.0, 71.0, 83.0, 95.0, 101.0, 140.0,
    ];
    let grid: Vec<f64> = (0..=60).map(|k| k as f64 / 40.0).collect();
    let designs = vec![
        (
            "first-price (naive)",
            MarketDesign {
                payment: dmp_mechanism::payment::PaymentRule::FirstPrice,
                allocation: dmp_mechanism::allocation::AllocationRule::TopK(1),
                ..MarketDesign::posted_price_baseline(0.0)
            },
        ),
        (
            "posted-price(50)",
            MarketDesign::posted_price_baseline(50.0),
        ),
        ("vickrey top-1", MarketDesign::scarce_licenses(1, 0.0)),
        ("rsop digital-goods", MarketDesign::external_revenue(13)),
    ];
    for (name, design) in designs {
        let report = empirical_ic_check(&design, &valuations, &grid);
        t.row(vec![
            name.into(),
            f2(report.max_gain),
            if report.is_ic {
                "yes".into()
            } else {
                "NO".into()
            },
        ]);
    }
    t.print();
}

/// E2 — the intro example, end to end.
fn e2_intro_example() {
    let mut t = ExperimentTable::new(
        "E2  Intro example: b1 + s1<a,b,c> + s2<a,b',f(d)> with 80%/90% steps",
        &["scenario", "accuracy", "price", "s1 revenue", "s2 revenue"],
    );
    let curve = PriceCurve::Step(vec![(0.8, 100.0), (0.9, 150.0)]);

    for only_s1 in [true, false] {
        let ex = intro_example(600, 42);
        let market = DataMarket::new(
            MarketConfig::external(4).with_design(MarketDesign::posted_price_baseline(40.0)),
        );
        let s1 = market.seller("seller1");
        s1.share(ex.s1.clone()).unwrap();
        if !only_s1 {
            let s2 = market.seller("seller2");
            s2.share(ex.s2.clone()).unwrap();
        }
        let b1 = market.buyer("b1");
        b1.deposit(1_000.0);
        let mut wtp = WtpFunction::simple("b1", ["a", "b", "c", "fd"], curve.clone());
        wtp.task = TaskKind::Classification {
            label: "label".into(),
        };
        wtp.owned_data = Some(ex.buyer_owned.clone());
        wtp.min_rows = 50;
        market.submit_wtp(wtp).unwrap();
        let report = market.run_round();
        let (accuracy, price) = report
            .sales
            .first()
            .map(|s| (s.satisfaction, s.price))
            .unwrap_or((0.0, 0.0));
        t.row(vec![
            if only_s1 {
                "s1 only".into()
            } else {
                "s1 + s2 mashup".into()
            },
            f3(accuracy),
            f2(price),
            f2(market.balance("seller1")),
            f2(market.balance("seller2")),
        ]);
    }
    // The mapping-recovery sub-result: f(d) = 1.8d + 32 discovered and
    // inverted from paired samples (negotiation round artifact).
    let pairs: Vec<(Value, Value)> = (0..20)
        .map(|i| {
            let d = i as f64;
            (Value::Float(1.8 * d + 32.0), Value::Float(d))
        })
        .collect();
    if let Some(mapping::Mapping::Affine { scale, offset }) = mapping::discover(&pairs) {
        t.row(vec![
            "f'(fd)->d discovered".into(),
            format!("scale={scale:.4}"),
            format!("offset={offset:.2}"),
            "-".into(),
            "-".into(),
        ]);
    }
    t.print();
}

/// E3 — §3.2.2.2: the ex post mechanism makes truthful reporting optimal.
fn e3_ex_post() {
    let mut t = ExperimentTable::new(
        "E3  Ex post elicitation: optimal report vs audit strength (v=100)",
        &["audit q", "penalty l", "q*l", "optimal report", "truthful?"],
    );
    for (q, l) in [(0.1, 1.5), (0.3, 2.0), (0.5, 2.5), (0.8, 1.5), (1.0, 1.0)] {
        let mech = ExPostMechanism {
            audit_prob: q,
            penalty_mult: l,
            exclusion_rounds: 0,
            round_value: 0.0,
        };
        let opt = mech.optimal_report(100.0);
        t.row(vec![
            f2(q),
            f2(l),
            f2(q * l),
            f2(opt),
            if (opt - 100.0).abs() < 1e-6 {
                "yes".into()
            } else {
                "NO".into()
            },
        ]);
    }
    t.print();
}

/// A superadditive game resembling dataset coverage.
fn coverage_like_game(n: usize) -> CharacteristicFn {
    CharacteristicFn::new(n, move |mask| {
        let s = mask.count_ones() as f64;
        // diminishing returns + a pivotal player 0
        s.sqrt() + if mask & 1 != 0 { 0.5 } else { 0.0 }
    })
}

/// E4 — §3.2.3: exact Shapley vs efficient alternatives.
fn e4_shapley() {
    // (a) exact vs Monte-Carlo.
    let mut ta = ExperimentTable::new(
        "E4a  Revenue allocation: exact vs Monte-Carlo(1000)",
        &["players", "mc max err"],
    );
    for n in [8usize, 12, 16, 18] {
        let game = coverage_like_game(n);
        let exact = exact_shapley(&game);
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mc = monte_carlo_shapley(&game, 1_000, &mut rng);
        ta.row(vec![n.to_string(), f3(max_abs_error(&exact, &mc))]);
    }
    ta.print();

    // (b) Monte-Carlo error vs samples.
    let mut tb = ExperimentTable::new(
        "E4b  Monte-Carlo error ~ 1/sqrt(samples) (12-player game)",
        &["samples", "max abs err"],
    );
    let game = coverage_like_game(12);
    let exact = exact_shapley(&game);
    for samples in [10usize, 100, 1_000, 10_000] {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let mc = monte_carlo_shapley(&game, samples, &mut rng);
        tb.row(vec![samples.to_string(), f3(max_abs_error(&exact, &mc))]);
    }
    tb.print();

    // (c) KNN-Shapley closed form at scale.
    let mut tc = ExperimentTable::new(
        "E4c  KNN-Shapley (Jia et al. [56]): exact closed form",
        &["train points", "efficiency check"],
    );
    for n in [1_000usize, 5_000, 20_000] {
        let train: Vec<LabeledPoint> = (0..n)
            .map(|i| LabeledPoint::new(vec![(i % 97) as f64, (i % 13) as f64], (i % 2) as i64))
            .collect();
        let test: Vec<LabeledPoint> = (0..20)
            .map(|i| LabeledPoint::new(vec![i as f64, i as f64], (i % 2) as i64))
            .collect();
        let s = knn_shapley(&train, &test, 5);
        let all: Vec<usize> = (0..n).collect();
        let total: f64 = s.iter().sum();
        let vn = knn_utility(&train, &all, &test, 5);
        tc.row(vec![
            n.to_string(),
            if (total - vn).abs() < 1e-6 {
                "sum=v(N) ok".into()
            } else {
                "FAIL".into()
            },
        ]);
    }
    tc.print();

    // (d) leave-one-out mis-credits substitutes.
    let mut td = ExperimentTable::new(
        "E4d  Substitute datasets: Shapley vs leave-one-out credit",
        &[
            "method",
            "dataset A",
            "dataset B (duplicate)",
            "dataset C (unique)",
        ],
    );
    // A and B are perfect substitutes; C is unique.
    let game = CharacteristicFn::new(3, |mask| {
        let ab = (mask & 0b011 != 0) as u32 as f64 * 0.5;
        let c = (mask & 0b100 != 0) as u32 as f64 * 0.5;
        ab + c
    });
    let phi = exact_shapley(&game);
    td.row(vec!["shapley".into(), f3(phi[0]), f3(phi[1]), f3(phi[2])]);
    let loo = leave_one_out(&game);
    td.row(vec![
        "leave-one-out".into(),
        f3(loo[0]),
        f3(loo[1]),
        f3(loo[2]),
    ]);
    td.print();
}

/// E5 — provenance revenue sharing on the intro example.
fn e5_revenue_sharing() {
    let ex = intro_example(400, 8);
    let metadata = MetadataEngine::new();
    let id1 = metadata.register("s1", "seller1", ex.s1);
    let id2 = metadata.register("s2", "seller2", ex.s2);
    let dod = DodEngine::new(&metadata);
    let spec = TargetSpec::with_attributes(["a", "c", "fd"]);
    let cands = dod.find_mashups(&spec).expect("mashups");
    let full = cands
        .iter()
        .find(|c| (c.coverage - 1.0).abs() < 1e-9)
        .expect("full coverage candidate");

    let mut t = ExperimentTable::new(
        "E5  Revenue sharing via provenance (price = 100)",
        &["method", "s1 share", "s2 share", "total"],
    );
    for (name, design) in [
        ("uniform+provenance", MarketDesign::internal_welfare()),
        ("shapley", MarketDesign::external_revenue(2)),
        (
            "leave-one-out",
            MarketDesign {
                revenue_allocation: dmp_mechanism::design::RevenueAllocationMethod::LeaveOneOut,
                ..MarketDesign::external_revenue(2)
            },
        ),
    ] {
        let shares = dmp_core::arbiter::revenue::dataset_shares(&design, &full.relation, 100.0);
        let s1 = shares
            .iter()
            .find(|s| s.dataset == id1)
            .map(|s| s.amount)
            .unwrap_or(0.0);
        let s2 = shares
            .iter()
            .find(|s| s.dataset == id2)
            .map(|s| s.amount)
            .unwrap_or(0.0);
        t.row(vec![name.into(), f2(s1), f2(s2), f2(total_shared(&shares))]);
    }
    t.print();
}

/// E6 — §6.1 effectiveness: adversarial mixes vs designs.
fn e6_adversarial() {
    let mut t = ExperimentTable::new(
        "E6  Robustness: welfare/revenue vs adversarial fraction",
        &[
            "design",
            "adversarial",
            "welfare",
            "revenue",
            "honest seller rev",
            "fill rate",
        ],
    );
    for (dname, design) in [
        ("posted(20)", MarketDesign::posted_price_baseline(20.0)),
        ("rsop", MarketDesign::external_revenue(21)),
    ] {
        for frac in [0.0, 0.3, 0.6] {
            let result = Scenario::adversarial(17, frac, design.clone()).run();
            t.row(vec![
                dname.into(),
                pct(frac),
                f2(result.metrics.welfare),
                f2(result.metrics.revenue),
                f2(result.metrics.honest_seller_revenue),
                pct(result.metrics.fill_rate),
            ]);
        }
    }
    t.print();
}

/// E7 — §6.1 efficiency: the simulator at growing participant counts.
fn e7_throughput() {
    let mut t = ExperimentTable::new(
        "E7  Simulator scaling vs participants",
        &["sellers", "buyers", "rounds", "tx"],
    );
    for (s, b) in [(5usize, 10usize), (10, 30), (20, 60)] {
        let w = generate(&WorkloadConfig {
            n_sellers: s,
            n_buyers: b,
            n_topics: 4,
            rows: 60,
            seed: 19,
            ..Default::default()
        });
        let cfg = SimConfig::new(
            MarketConfig::external(2).with_design(MarketDesign::posted_price_baseline(15.0)),
            5,
        );
        let mut sim = Simulation::new(
            cfg,
            w,
            vec![BuyerStrategy::Truthful],
            vec![SellerStrategy::Honest],
        );
        let result = sim.run(5);
        t.row(vec![
            s.to_string(),
            b.to_string(),
            "5".into(),
            result.metrics.transactions.to_string(),
        ]);
    }
    t.print();
}

/// E8 — §2: value is extrinsic (demand-driven), not intrinsic.
fn e8_extrinsic_value() {
    // (a) same dataset, rising demand under RSOP -> rising realized price.
    let mut ta = ExperimentTable::new(
        "E8a  Same dataset, different demand (RSOP digital goods)",
        &["buyers", "mean price paid", "revenue"],
    );
    for n_buyers in [2usize, 10, 40] {
        let design = MarketDesign::external_revenue(23);
        let bids: Vec<Bid> = (0..n_buyers)
            .map(|i| Bid::new(format!("b{i}"), 20.0 + (i % 10) as f64 * 8.0))
            .collect();
        let valuations: Vec<f64> = bids.iter().map(|b| b.amount).collect();
        let outcome = design.run_auction(&bids, &valuations);
        let paid: Vec<f64> = outcome.payments.iter().map(|(_, p)| *p).collect();
        let mean = if paid.is_empty() {
            0.0
        } else {
            paid.iter().sum::<f64>() / paid.len() as f64
        };
        ta.row(vec![
            n_buyers.to_string(),
            f2(mean),
            f2(outcome.measure.revenue),
        ]);
    }
    ta.print();

    // (b) intrinsic property (missing values) only matters when demanded.
    let mut tb = ExperimentTable::new(
        "E8b  Missing values only matter when the task demands them",
        &["missing ratio", "strict-buyer bid", "lenient-buyer bid"],
    );
    for missing in [0.0f64, 0.2, 0.4] {
        let mut b = RelationBuilder::new("t").column("a", DataType::Int);
        for i in 0..100 {
            let null = (i as f64 / 100.0) < missing;
            b = b.row(vec![if null { Value::Null } else { Value::Int(i) }]);
        }
        let rel = b.source(DatasetId(1)).build().unwrap();
        let mut strict = WtpFunction::simple("strict", ["a"], PriceCurve::Constant(100.0));
        strict.constraints.max_missing_ratio = Some(0.05);
        let lenient = WtpFunction::simple("lenient", ["a"], PriceCurve::Constant(100.0));
        let sb = dmp_core::arbiter::wtp_evaluator::evaluate(&strict, &rel).bid;
        let lb = dmp_core::arbiter::wtp_evaluator::evaluate(&lenient, &rel).bid;
        tb.row(vec![pct(missing), f2(sb), f2(lb)]);
    }
    tb.print();
}

/// E9 — §4.2: the privacy–value curve.
fn e9_privacy_value() {
    let mut t = ExperimentTable::new(
        "E9  Privacy vs value: satisfaction and price vs epsilon",
        &["epsilon", "accuracy", "price (steps 0.8/0.9)"],
    );
    let curve = PriceCurve::Step(vec![(0.8, 100.0), (0.9, 150.0)]);
    let task = ClassifierTask::logistic("label");
    let clean = gaussian_blobs(600, 2, 2.5, 31);
    for eps in [0.05f64, 0.2, 0.5, 1.0, 3.0, 10.0] {
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        let params = DpParams::new(eps, 2.0);
        let noisy = perturb_numeric_column(&clean, "x1", params, &mut rng).unwrap();
        let noisy = perturb_numeric_column(&noisy, "x2", params, &mut rng).unwrap();
        let acc = task.evaluate(&noisy).value();
        t.row(vec![f2(eps), f3(acc), f2(curve.price(acc))]);
    }
    t.print();
}

/// E10 — §8.2: arbitrage-free query pricing.
fn e10_query_pricing() {
    let mut t = ExperimentTable::new(
        "E10  Query pricing: arbitrage count and revenue",
        &["pricing", "views", "arbitrage opportunities", "revenue"],
    );
    let n_attrs = 10usize;
    let mut rng = rand::rngs::StdRng::seed_from_u64(41);
    // Random demand profile over random views.
    let demand: Vec<Demand> = (0..40)
        .map(|_| {
            let view = (rand::Rng::gen::<u32>(&mut rng) % (1 << n_attrs)).max(1);
            let budget = 5.0 + rand::Rng::gen::<f64>(&mut rng) * 50.0;
            Demand { view, budget }
        })
        .collect();
    let views: Vec<u32> = demand.iter().map(|d| d.view).collect();

    // Naive: independent random prices per view (today's markets).
    let mut naive = NaivePricing::new();
    for &v in &views {
        naive.set(v, 5.0 + rand::Rng::gen::<f64>(&mut rng) * 50.0);
    }
    let arb = find_arbitrage(&naive, &views);
    t.row(vec![
        "naive per-view".into(),
        views.len().to_string(),
        arb.len().to_string(),
        f2(revenue(&naive, &demand)),
    ]);

    // Arbitrage-free weighted coverage, revenue-optimized uniform weight.
    let (opt, opt_rev) = optimize_uniform_pricing(n_attrs, &demand);
    let arb = find_arbitrage(&opt, &views);
    t.row(vec![
        "arbitrage-free (optimized)".into(),
        views.len().to_string(),
        arb.len().to_string(),
        f2(opt_rev),
    ]);

    // A hand-weighted arbitrage-free variant for reference.
    let weighted = WeightedCoveragePricing::new((0..n_attrs).map(|i| 2.0 + i as f64).collect());
    let arb = find_arbitrage(&weighted, &views);
    t.row(vec![
        "arbitrage-free (static)".into(),
        views.len().to_string(),
        arb.len().to_string(),
        f2(revenue(&weighted, &demand)),
    ]);
    let _ = weighted.price(1); // exercise the trait directly
    t.print();
}

/// E11 — §7.1: opportunists fill unmet demand.
fn e11_opportunists() {
    let mut t = ExperimentTable::new(
        "E11  Economic opportunities: opportunistic sellers",
        &["scenario", "fill rate", "welfare", "transactions"],
    );
    for with in [false, true] {
        let scenario = Scenario::opportunist(29, with);
        // Demand an attribute nobody sells at the start.
        let mut workload = scenario.workload();
        for d in &mut workload.demands {
            d.attributes = vec!["exotic_signal".into()];
        }
        let cfg = SimConfig::new(scenario.market.clone(), scenario.rounds);
        let mut sim = Simulation::new(
            cfg,
            workload,
            scenario.buyers.clone(),
            scenario.sellers.clone(),
        );
        let result = sim.run(scenario.rounds);
        t.row(vec![
            scenario.name.clone(),
            pct(result.metrics.fill_rate),
            f2(result.metrics.welfare),
            result.metrics.transactions.to_string(),
        ]);
    }
    t.print();

    // E11b: arbitrageurs (§7.1) — buy, transform, relist, when licenses
    // allow resale.
    let mut tb = ExperimentTable::new(
        "E11b  Arbitrageurs: relisted datasets under resale licenses",
        &["scenario", "relisted datasets", "market datasets end"],
    );
    for resale in [false, true] {
        let w = generate(&WorkloadConfig {
            n_sellers: 4,
            n_buyers: 8,
            n_topics: 2,
            rows: 40,
            seed: 11,
            ..Default::default()
        });
        let mut cfg = SimConfig::new(
            MarketConfig::external(1).with_design(MarketDesign::posted_price_baseline(5.0)),
            5,
        );
        if resale {
            cfg = cfg.with_resale();
        }
        let mut sim = Simulation::new(
            cfg,
            w,
            vec![BuyerStrategy::Truthful],
            vec![
                SellerStrategy::Honest,
                SellerStrategy::Arbitrageur { budget: 100.0 },
            ],
        );
        sim.run(5);
        let relisted = sim
            .market()
            .metadata()
            .entries()
            .iter()
            .filter(|e| e.name.contains("curated"))
            .count();
        tb.row(vec![
            if resale {
                "resale allowed".into()
            } else {
                "standard licenses".into()
            },
            relisted.to_string(),
            sim.market().metadata().len().to_string(),
        ]);
    }
    tb.print();
}

/// E12 — §3.3: internal vs external vs barter configurations.
fn e12_market_kinds() {
    let mut t = ExperimentTable::new(
        "E12  Market design space: same lake, three market kinds",
        &["kind", "transactions", "revenue", "fill rate", "welfare"],
    );
    for (name, market) in [
        ("internal (points)", MarketConfig::internal()),
        (
            "external (money)",
            MarketConfig::external(3).with_design(MarketDesign::posted_price_baseline(20.0)),
        ),
        ("barter (credits)", MarketConfig::barter()),
    ] {
        let result = Scenario::market_kind(13, market, name).run();
        t.row(vec![
            name.into(),
            result.metrics.transactions.to_string(),
            f2(result.metrics.revenue),
            pct(result.metrics.fill_rate),
            f2(result.metrics.welfare),
        ]);
    }
    t.print();
}

/// E13 — §5.3: fusion operators / truth discovery accuracy.
fn e13_fusion() {
    let mut t = ExperimentTable::new(
        "E13  Fusion: value accuracy vs source error rate (200 objects)",
        &[
            "sources",
            "err rate",
            "single src",
            "majority",
            "truth discovery",
        ],
    );
    let mut rng = rand::rngs::StdRng::seed_from_u64(47);
    for (n_sources, err) in [(3usize, 0.1f64), (5, 0.2), (9, 0.3), (9, 0.4)] {
        let objects = 200usize;
        let truth: Vec<i64> = (0..objects).map(|i| (i % 7) as i64).collect();
        // Source 0 is more reliable, to give truth discovery signal.
        let sources: Vec<_> = (0..n_sources)
            .map(|s| {
                let my_err = if s == 0 { err * 0.5 } else { err };
                let mut b = RelationBuilder::new(format!("src{s}"))
                    .column("obj", DataType::Int)
                    .column("val", DataType::Int);
                for (i, &tv) in truth.iter().enumerate() {
                    let v = if rand::Rng::gen::<f64>(&mut rng) < my_err {
                        tv + 1 + (rand::Rng::gen::<u32>(&mut rng) % 5) as i64
                    } else {
                        tv
                    };
                    b = b.row(vec![Value::Int(i as i64), Value::Int(v)]);
                }
                b.source(DatasetId(s as u64)).build().unwrap()
            })
            .collect();
        let refs: Vec<&dmp_relation::Relation> = sources.iter().collect();
        let fused = align(&refs, "obj", "val").unwrap();

        let accuracy = |rel: &dmp_relation::Relation| -> f64 {
            let mut hits = 0usize;
            for row in rel.rows() {
                let obj = row.get(0).as_i64().unwrap() as usize;
                if row.get(1).as_i64() == Some(truth[obj]) {
                    hits += 1;
                }
            }
            hits as f64 / truth.len() as f64
        };

        let single = accuracy(&sources[1]);
        let majority = accuracy(&resolve(&fused, "val", &FusionStrategy::MajorityVote).unwrap());
        let td = TruthDiscovery::default().run(&fused, "val").unwrap();
        let tdacc = accuracy(&td.resolved);
        t.row(vec![
            n_sources.to_string(),
            pct(err),
            f3(single),
            f3(majority),
            f3(tdacc),
        ]);
    }
    t.print();
}

/// E14 — §4.1: negotiation rounds unlock blocked integrations.
fn e14_negotiation() {
    let mut t = ExperimentTable::new(
        "E14  Negotiation: seller-provided mapping table unlocks attribute d",
        &["phase", "best coverage", "missing", "candidates"],
    );
    // s2 publishes fd = f(d); the buyer wants d itself.
    let ex = intro_example(300, 51);
    let metadata = MetadataEngine::new();
    metadata.register("s2", "seller2", ex.s2.clone());
    let spec = TargetSpec::with_attributes(["a", "d"]);
    {
        let dod = DodEngine::new(&metadata);
        let cands = dod.find_mashups(&spec).unwrap();
        let best_cov = cands.iter().map(|c| c.coverage).fold(0.0, f64::max);
        t.row(vec![
            "before negotiation".into(),
            f2(best_cov),
            "d".into(),
            cands.len().to_string(),
        ]);
    }
    // Negotiation round: the arbiter asks seller2 how to recover d; the
    // seller publishes the fd -> d mapping table.
    let table = {
        let mut b = RelationBuilder::new("fd_to_d")
            .column("fd", DataType::Float)
            .column("d", DataType::Float);
        let fds: Vec<f64> = ex.s2.column_f64("fd").unwrap();
        for fd in fds {
            b = b.row(vec![Value::Float(fd), Value::Float((fd - 32.0) / 1.8)]);
        }
        b.build().unwrap()
    };
    metadata.register("fd_to_d", "seller2", table);
    {
        let dod = DodEngine::new(&metadata);
        let cands = dod.find_mashups(&spec).unwrap();
        let best_cov = cands.iter().map(|c| c.coverage).fold(0.0, f64::max);
        t.row(vec![
            "after mapping table".into(),
            f2(best_cov),
            if best_cov >= 1.0 {
                "-".into()
            } else {
                "d".into()
            },
            cands.len().to_string(),
        ]);
    }
    t.print();
}

/// E15 — §4.1 services: CF recommendations vs popularity baseline.
fn e15_recommendations() {
    use dmp_core::arbiter::services::{recommend, recommend_popular, Purchase};
    let mut rng = rand::rngs::StdRng::seed_from_u64(61);
    // 100 buyers, 30 datasets in 6 taste clusters of 5.
    let n_buyers = 100usize;
    let clusters = 6usize;
    let per_cluster = 5usize;
    let mut history: Vec<Purchase> = Vec::new();
    let mut holdout: HashMap<String, DatasetId> = HashMap::new();
    for b in 0..n_buyers {
        let cluster = b % clusters;
        let base = (cluster * per_cluster) as u64;
        // Buys 3 random datasets from its cluster; holds out a 4th.
        let mut picks: Vec<u64> = (0..per_cluster as u64).collect();
        use rand::seq::SliceRandom;
        picks.shuffle(&mut rng);
        let buyer = format!("buyer{b}");
        let bought: Vec<DatasetId> = picks[..3].iter().map(|&p| DatasetId(base + p)).collect();
        holdout.insert(buyer.clone(), DatasetId(base + picks[3]));
        history.push(Purchase {
            buyer,
            datasets: bought,
        });
    }
    let mut cf_hits = 0usize;
    let mut pop_hits = 0usize;
    for (buyer, held) in &holdout {
        if recommend(&history, buyer, 3).contains(held) {
            cf_hits += 1;
        }
        if recommend_popular(&history, buyer, 3).contains(held) {
            pop_hits += 1;
        }
    }
    let mut t = ExperimentTable::new(
        "E15  Recommendations: hit-rate@3 on held-out purchases",
        &["method", "hit rate"],
    );
    t.row(vec![
        "item-based CF".into(),
        pct(cf_hits as f64 / n_buyers as f64),
    ]);
    t.row(vec![
        "popularity".into(),
        pct(pop_hits as f64 / n_buyers as f64),
    ]);
    t.print();
}

/// E16 — §4.4: exclusive licensing creates scarcity and a tax.
fn e16_licensing() {
    let mut t = ExperimentTable::new(
        "E16  Licensing: exclusivity tax and denial-of-access",
        &[
            "license",
            "buyer1 price",
            "buyer2 same-round",
            "buyer2 after hold",
        ],
    );
    for exclusive in [false, true] {
        let market = DataMarket::new(
            MarketConfig::external(67).with_design(MarketDesign::posted_price_baseline(20.0)),
        );
        let seller = market.seller("s");
        let mut b = RelationBuilder::new("signal").column("x", DataType::Int);
        for i in 0..50 {
            b = b.row(vec![Value::Int(i)]);
        }
        let id = seller.share(b.build().unwrap()).unwrap();
        if exclusive {
            seller
                .set_license(
                    id,
                    License::Exclusive {
                        tax_rate: 0.5,
                        hold_rounds: 2,
                    },
                )
                .unwrap();
        }
        let b1 = market.buyer("b1");
        b1.deposit(1_000.0);
        let b2 = market.buyer("b2");
        b2.deposit(1_000.0);
        market
            .submit_wtp(WtpFunction::simple("b1", ["x"], PriceCurve::Constant(60.0)))
            .unwrap();
        let r1 = market.run_round();
        let b1_price = r1.sales.first().map(|s| s.price).unwrap_or(0.0);
        let offer2 = market
            .submit_wtp(WtpFunction::simple("b2", ["x"], PriceCurve::Constant(60.0)))
            .unwrap();
        let r2 = market.run_round();
        let b2_now = if r2.sales.iter().any(|s| s.buyer == "b2") {
            "served"
        } else {
            "DENIED"
        };
        // run past the hold
        market.run_round();
        market.run_round();
        let b2_later = if matches!(
            market.offer(offer2).map(|o| o.state),
            Some(dmp_core::market::OfferState::Fulfilled { .. })
        ) {
            "served"
        } else {
            "DENIED"
        };
        t.row(vec![
            if exclusive {
                "exclusive(+50%, 2 rounds)".into()
            } else {
                "standard".into()
            },
            f2(b1_price),
            b2_now.into(),
            b2_later.into(),
        ]);
    }
    t.print();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(names: &[&str]) -> Vec<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn select_runs_everything_by_default_and_refuses_unknown_names() {
        assert_eq!(select(&[]).unwrap().len(), TABLES.len());
        assert_eq!(select(&args(&["e10", "f3", "e10"])).unwrap().len(), 2);
        assert_eq!(
            select(&args(&["e4", "svc", "e17"])).unwrap_err(),
            args(&["svc", "e17"])
        );
    }
}
