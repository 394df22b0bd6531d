//! Integration tests of the distribution pipeline: server plan → base
//! stations → wire encoding → mobile nodes, plus dead-reckoning round
//! trips between mobile and server state.

use lira::prelude::*;

/// A deterministic heterogeneous statistics grid for plan construction.
fn demo_grid(bounds: Rect, alpha: usize) -> StatsGrid {
    let mut grid = StatsGrid::new(alpha, bounds).unwrap();
    grid.begin_snapshot();
    // Dense, slow cluster in the SW; sparse, fast traffic in the NE.
    for i in 0..400 {
        let p = Point::new(
            bounds.width() * 0.05 + (i % 20) as f64 * bounds.width() * 0.01,
            bounds.height() * 0.05 + (i / 20) as f64 * bounds.height() * 0.01,
        );
        grid.observe_node(&p, 6.0, 1.0);
    }
    for i in 0..40 {
        let p = Point::new(
            bounds.width() * (0.6 + 0.01 * (i % 8) as f64),
            bounds.height() * (0.6 + 0.01 * (i / 8) as f64),
        );
        grid.observe_node(&p, 25.0, 1.0);
    }
    for i in 0..12 {
        let x = bounds.width() * (0.55 + 0.03 * (i % 4) as f64);
        let y = bounds.height() * (0.55 + 0.03 * (i / 4) as f64);
        grid.observe_query(&Rect::from_coords(
            x,
            y,
            x + bounds.width() * 0.05,
            y + bounds.height() * 0.05,
        ));
    }
    grid.commit_snapshot();
    grid
}

#[test]
fn plan_distribution_round_trip_preserves_lookups() {
    let bounds = Rect::from_coords(0.0, 0.0, 8192.0, 8192.0);
    let grid = demo_grid(bounds, 64);
    let mut config = LiraConfig::default();
    config.bounds = bounds;
    config = config.with_regions(40);
    let shedder = LiraShedder::new(config.clone(), 500).unwrap();
    let plan = shedder.adapt_with_throttle(&grid, 0.4).unwrap().plan;

    // Base stations on a uniform grid with 1.5 km radius.
    let stations = uniform_placement(&bounds, 1500.0);
    assert!(!stations.is_empty());

    // For a probe set of points: resolve via station → wire → mobile node
    // and compare against the server plan.
    for i in 0..40 {
        for j in 0..40 {
            let p = Point::new(i as f64 * 200.0 + 17.0, j as f64 * 200.0 + 13.0);
            let sid = station_for(&stations, &p).unwrap();
            let subset = plan.subset_for(&stations[sid as usize].coverage);
            let wire = SheddingPlan::new(bounds, subset, config.delta_min).encode();
            let received = SheddingPlan::decode(bounds, &wire, config.delta_min).unwrap();
            let mobile = MobileShedder::install(0, received.regions().to_vec(), config.delta_min);
            let local = mobile.throttler_at(&p);
            let server = plan.throttler_at(&p);
            assert!(
                (local - server).abs() < 1e-3,
                "at {p}: mobile {local} vs server {server}"
            );
        }
    }
}

#[test]
fn station_subsets_cover_their_disks() {
    let bounds = Rect::from_coords(0.0, 0.0, 8192.0, 8192.0);
    let grid = demo_grid(bounds, 64);
    let mut config = LiraConfig::default();
    config.bounds = bounds;
    config = config.with_regions(25);
    let shedder = LiraShedder::new(config, 500).unwrap();
    let plan = shedder.adapt_with_throttle(&grid, 0.5).unwrap().plan;
    for station in uniform_placement(&bounds, 2000.0) {
        let subset = plan.subset_for(&station.coverage);
        // Every plan region intersecting the disk must be in the subset.
        let expected = plan
            .regions()
            .iter()
            .filter(|r| station.coverage.intersects_rect(&r.area))
            .count();
        assert_eq!(subset.len(), expected);
    }
}

#[test]
fn dead_reckoning_keeps_server_within_delta() {
    // The fundamental dead-reckoning contract across the mobile and server
    // crates: at every observation instant, the server's prediction is
    // within the node's threshold of its true position.
    let net = generate_network(&NetworkConfig::small(3));
    let bounds = *net.bounds();
    let demand = TrafficDemand::random_hotspots(&bounds, 2, 3);
    let mut sim = TrafficSimulator::new(
        net,
        &demand,
        TrafficConfig {
            num_cars: 30,
            seed: 3,
        },
    );
    let mut server = CqServer::new(bounds, 30);
    let mut reckoners = vec![DeadReckoner::new(); 30];
    let delta = 25.0;
    for _ in 0..300 {
        sim.step(1.0);
        let t = sim.time();
        for (i, car) in sim.cars().iter().enumerate() {
            if let Some(rep) =
                reckoners[i].observe(i as u32, t, car.position(), car.velocity(), delta)
            {
                server.ingest(rep.node, t, rep.model.origin, rep.model.velocity);
            }
            let predicted = server.predict(i as u32, t).expect("first tick reports");
            let true_pos = car.position();
            assert!(
                predicted.distance(&true_pos) <= delta + 1e-6,
                "node {i}: prediction off by {}",
                predicted.distance(&true_pos)
            );
        }
    }
}

#[test]
fn reference_and_shed_servers_agree_at_z_one() {
    // With z = 1 the plan is Δ⊢ everywhere: both servers see identical
    // update streams, so all error metrics must be exactly zero.
    let mut sc = Scenario::small(19);
    sc.throttle = 1.0;
    sc.duration_s = 60.0;
    let report = run_scenario(&sc, &[Policy::Lira, Policy::UniformDelta]);
    for o in &report.outcomes {
        assert_eq!(
            o.metrics.mean_containment, 0.0,
            "{:?} containment at z=1",
            o.policy
        );
        assert_eq!(
            o.metrics.mean_position, 0.0,
            "{:?} position at z=1",
            o.policy
        );
        assert_eq!(o.updates_processed, report.reference_updates);
    }
}

#[test]
fn parallel_lanes_are_bit_identical_to_sequential() {
    // The pipeline's determinism contract: with two or more policies the
    // lanes run on scoped threads, and the report must still match a
    // forced single-threaded run bit for bit — every lane derives its RNG
    // from the scenario seed and its policy index, and shares no mutable
    // state. Only the wall-clock `adapt_micros` may differ between modes.
    let mut sc = Scenario::small(23);
    sc.duration_s = 90.0;
    let parallel = SimPipeline::new().run(&sc, &Policy::ALL);
    let sequential = SimPipeline::new()
        .with_parallelism(Parallelism::Sequential)
        .run(&sc, &Policy::ALL);

    assert_eq!(parallel.reference_updates, sequential.reference_updates);
    assert_eq!(parallel.num_queries, sequential.num_queries);
    assert_eq!(parallel.outcomes.len(), sequential.outcomes.len());
    for (p, s) in parallel.outcomes.iter().zip(&sequential.outcomes) {
        assert_eq!(p.policy, s.policy);
        assert_eq!(
            p.updates_sent, s.updates_sent,
            "{:?} updates sent",
            p.policy
        );
        assert_eq!(
            p.updates_processed, s.updates_processed,
            "{:?} processed",
            p.policy
        );
        for (label, a, b) in [
            (
                "E^C_rr",
                p.metrics.mean_containment,
                s.metrics.mean_containment,
            ),
            ("E^P_rr", p.metrics.mean_position, s.metrics.mean_position),
            (
                "D^C_ev",
                p.metrics.stddev_containment,
                s.metrics.stddev_containment,
            ),
            (
                "C^C_ov",
                p.metrics.cov_containment,
                s.metrics.cov_containment,
            ),
            (
                "processed fraction",
                p.processed_fraction,
                s.processed_fraction,
            ),
        ] {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{:?} {label}: parallel {a} vs sequential {b}",
                p.policy
            );
        }
    }
}

#[test]
fn unified_engine_run_report_is_bit_identical_to_legacy() {
    // The acceptance bar for the unified engine: for a fixed-seed
    // scenario, the whole multi-policy report must match the legacy
    // per-query oracle bit for bit — policy outcomes, update counts,
    // fault accounting, plan sizes. Only wall-clock fields
    // (`adapt_micros`, telemetry snapshots) are exempt.
    let mut sc = Scenario::small(31);
    sc.duration_s = 90.0;
    let unified = SimPipeline::new()
        .with_engine(EvalEngine::Unified { shards: 1 })
        .run(&sc, &Policy::ALL);
    let legacy = SimPipeline::new()
        .with_engine(EvalEngine::Legacy)
        .run(&sc, &Policy::ALL);

    assert_eq!(unified.reference_updates, legacy.reference_updates);
    assert_eq!(unified.num_queries, legacy.num_queries);
    assert_eq!(unified.num_cars, legacy.num_cars);
    assert_eq!(unified.outcomes.len(), legacy.outcomes.len());
    for (i, l) in unified.outcomes.iter().zip(&legacy.outcomes) {
        assert_eq!(i.policy, l.policy);
        assert_eq!(i.updates_sent, l.updates_sent, "{:?} sent", i.policy);
        assert_eq!(
            i.updates_processed, l.updates_processed,
            "{:?} processed",
            i.policy
        );
        assert_eq!(i.plan_regions, l.plan_regions, "{:?} regions", i.policy);
        assert_eq!(i.faults, l.faults, "{:?} faults", i.policy);
        for (label, a, b) in [
            (
                "E^C_rr",
                i.metrics.mean_containment,
                l.metrics.mean_containment,
            ),
            ("E^P_rr", i.metrics.mean_position, l.metrics.mean_position),
            (
                "D^C_ev",
                i.metrics.stddev_containment,
                l.metrics.stddev_containment,
            ),
            (
                "C^C_ov",
                i.metrics.cov_containment,
                l.metrics.cov_containment,
            ),
            (
                "processed fraction",
                i.processed_fraction,
                l.processed_fraction,
            ),
        ] {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{:?} {label}: unified {a} vs legacy {b}",
                i.policy
            );
        }
    }
}

#[test]
fn shard_counts_yield_bit_identical_run_reports() {
    // The acceptance bar for the striped unified engine: the whole
    // multi-policy report must match the shards = 1 degenerate case bit
    // for bit at every shard count, including one (3) that leaves
    // stripes of unequal width.
    let mut sc = Scenario::small(41);
    sc.duration_s = 90.0;
    let baseline = SimPipeline::new()
        .with_engine(EvalEngine::Unified { shards: 1 })
        .run(&sc, &Policy::ALL);

    for shards in [2usize, 3, 4, 8] {
        let striped = SimPipeline::new()
            .with_engine(EvalEngine::Unified { shards })
            .run(&sc, &Policy::ALL);
        assert_eq!(striped.reference_updates, baseline.reference_updates);
        assert_eq!(striped.num_queries, baseline.num_queries);
        assert_eq!(striped.outcomes.len(), baseline.outcomes.len());
        for (s, i) in striped.outcomes.iter().zip(&baseline.outcomes) {
            assert_eq!(s.policy, i.policy);
            assert_eq!(
                s.updates_sent, i.updates_sent,
                "{shards} {:?} sent",
                s.policy
            );
            assert_eq!(
                s.updates_processed, i.updates_processed,
                "{shards} {:?} processed",
                s.policy
            );
            assert_eq!(
                s.plan_regions, i.plan_regions,
                "{shards} {:?} regions",
                s.policy
            );
            assert_eq!(s.faults, i.faults, "{shards} {:?} faults", s.policy);
            assert_eq!(s.metrics, i.metrics, "{shards} {:?} metrics", s.policy);
            assert_eq!(
                s.processed_fraction.to_bits(),
                i.processed_fraction.to_bits(),
                "{shards} {:?} processed fraction",
                s.policy
            );
        }
    }
}

#[test]
fn sequential_parallelism_inlines_striped_evaluation() {
    // `Parallelism::Sequential` must mean *no* spawned threads anywhere:
    // the unified engine's phases run on the calling thread, and the
    // report still matches the pooled run bit for bit.
    let mut sc = Scenario::small(43);
    sc.duration_s = 60.0;
    let pooled = SimPipeline::new()
        .with_engine(EvalEngine::Unified { shards: 4 })
        .run(&sc, &Policy::ALL);
    let inline = SimPipeline::new()
        .with_engine(EvalEngine::Unified { shards: 4 })
        .with_parallelism(Parallelism::Sequential)
        .run(&sc, &Policy::ALL);
    assert_eq!(pooled.reference_updates, inline.reference_updates);
    for (p, s) in pooled.outcomes.iter().zip(&inline.outcomes) {
        assert_eq!(p.policy, s.policy);
        assert_eq!(p.metrics, s.metrics, "{:?} metrics", p.policy);
        assert_eq!(p.updates_sent, s.updates_sent, "{:?} sent", p.policy);
        assert_eq!(
            p.updates_processed, s.updates_processed,
            "{:?} processed",
            p.policy
        );
    }
}

#[test]
fn adaptive_report_is_bit_identical_across_engines() {
    // Same bar for the closed loop: THROTLOOP's whole trajectory (window
    // stats, final throttle, drop fraction) and the accuracy metrics must
    // not move when the engine changes.
    let mut sc = Scenario::small(37);
    sc.num_cars = 200;
    sc.duration_s = 120.0;
    let cfg = AdaptiveConfig {
        service_rate: 60.0,
        queue_capacity: 300,
        control_period_s: 20.0,
    };
    let unified = run_adaptive_with_engine(&sc, &cfg, EvalEngine::Unified { shards: 1 });
    let legacy = run_adaptive_with_engine(&sc, &cfg, EvalEngine::Legacy);
    let striped = run_adaptive_with_engine(&sc, &cfg, EvalEngine::Unified { shards: 4 });

    assert_eq!(unified.windows, legacy.windows);
    assert_eq!(
        unified.final_throttle.to_bits(),
        legacy.final_throttle.to_bits()
    );
    assert_eq!(
        unified.drop_fraction.to_bits(),
        legacy.drop_fraction.to_bits()
    );
    assert_eq!(unified.metrics, legacy.metrics);
    assert_eq!(unified.faults, legacy.faults);
    assert_eq!(striped.windows, unified.windows);
    assert_eq!(
        striped.final_throttle.to_bits(),
        unified.final_throttle.to_bits()
    );
    assert_eq!(
        striped.drop_fraction.to_bits(),
        unified.drop_fraction.to_bits()
    );
    assert_eq!(striped.metrics, unified.metrics);
    assert_eq!(striped.faults, unified.faults);
}

#[test]
fn table3_region_counts_grow_with_radius() {
    // Table 3's shape: stations with larger coverage know more regions.
    let bounds = Rect::from_coords(0.0, 0.0, 14_142.0, 14_142.0);
    let grid = demo_grid(bounds, 128);
    let mut config = LiraConfig::default();
    config.bounds = bounds;
    let shedder = LiraShedder::new(config, 500).unwrap();
    let plan = shedder.adapt_with_throttle(&grid, 0.5).unwrap().plan;
    // A fixed station growing its radius sees a superset of regions:
    // strictly monotone counts.
    let center = bounds.center();
    let mut prev = 0usize;
    for radius_km in [1.0, 2.0, 3.0, 4.0, 5.0] {
        let n = plan
            .subset_for(&Circle::new(center, radius_km * 1000.0))
            .len();
        assert!(
            n > prev,
            "radius {radius_km} km: {n} regions not more than {prev}"
        );
        prev = n;
    }
    // Across a whole placement the mean also grows from the smallest to
    // the largest radius (per-step counts can wobble as station positions
    // shift with the grid pitch).
    let small = mean_regions_per_station(&uniform_placement(&bounds, 1000.0), &plan);
    let large = mean_regions_per_station(&uniform_placement(&bounds, 5000.0), &plan);
    assert!(large > 2.0 * small, "1 km: {small}, 5 km: {large}");
}

#[test]
fn uncertain_evaluation_guarantees_hold_end_to_end() {
    // Drive real traffic through dead reckoning under a LIRA plan and
    // check the three-valued membership guarantees against the TRUE
    // positions: `must` nodes are truly inside; every truly-inside node is
    // in `must ∪ maybe`.
    let net = generate_network(&NetworkConfig::small(47));
    let bounds = *net.bounds();
    let demand = TrafficDemand::random_hotspots(&bounds, 2, 47);
    let mut sim = TrafficSimulator::new(
        net,
        &demand,
        TrafficConfig {
            num_cars: 120,
            seed: 47,
        },
    );
    for _ in 0..45 {
        sim.step(1.0);
    }

    // A LIRA plan over the warmed statistics.
    let mut config = LiraConfig::default();
    config.bounds = bounds;
    config = config.with_regions(13);
    let mut grid = StatsGrid::new(config.alpha, bounds).unwrap();
    grid.begin_snapshot();
    for car in sim.cars() {
        grid.observe_node(&car.position(), car.speed(), 1.0);
    }
    grid.observe_query(&Rect::from_coords(400.0, 400.0, 1200.0, 1200.0));
    grid.commit_snapshot();
    let shedder = LiraShedder::new(config.clone(), 100).unwrap();
    let plan = shedder.adapt_with_throttle(&grid, 0.4).unwrap().plan;

    let mut server = CqServer::new(bounds, 120);
    server.register_queries([
        RangeQuery {
            id: 0,
            range: Rect::from_coords(400.0, 400.0, 1200.0, 1200.0),
        },
        RangeQuery {
            id: 1,
            range: Rect::from_coords(0.0, 1000.0, 900.0, 2000.0),
        },
    ]);
    let queries = server.queries().to_vec();
    let mut reckoners = vec![DeadReckoner::new(); 120];

    for tick in 0..240 {
        sim.step(1.0);
        let t = sim.time();
        for (i, car) in sim.cars().iter().enumerate() {
            let delta = plan.throttler_at(&car.position());
            if let Some(rep) =
                reckoners[i].observe(i as u32, t, car.position(), car.velocity(), delta)
            {
                server.ingest(rep.node, t, rep.model.origin, rep.model.velocity);
            }
        }
        if tick % 20 != 0 {
            continue;
        }
        // The node's threshold comes from its *true* region, which the
        // server does not know; the sound bound is the max throttler of any
        // region within Δ⊣ of the prediction.
        let results = server.evaluate_uncertain(t, config.delta_max, |_, p| {
            plan.max_throttler_within(&p, config.delta_max)
        });
        for (q, r) in queries.iter().zip(&results) {
            for &n in &r.must {
                let truth = sim.cars()[n as usize].position();
                assert!(
                    q.range.expand(1e-6).contains_closed(&truth),
                    "tick {tick}: must-node {n} truly at {truth}, outside {:?}",
                    q.range
                );
            }
            for (n, car) in sim.cars().iter().enumerate() {
                if q.range.contains(&car.position()) {
                    let n = n as u32;
                    assert!(
                        r.must.binary_search(&n).is_ok() || r.maybe.binary_search(&n).is_ok(),
                        "tick {tick}: node {n} truly inside but in neither must nor maybe"
                    );
                }
            }
        }
    }
}
