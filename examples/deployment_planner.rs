//! Deployment planning: sweep partition grids × split depths for a model,
//! score accuracy with a Figure-10-shaped oracle, and pick the fastest
//! configuration meeting an operator accuracy floor — the paper's §7.2
//! "network operator can decide the partition size based on their accuracy
//! requirement", automated.
//!
//! ```sh
//! cargo run --release --example deployment_planner [vgg16|yolo|...] [min_accuracy]
//! ```

use adcnn::core::fdsp::TileGrid;
use adcnn::netsim::planner::{plan_deployment, plan_placement};
use adcnn::netsim::{
    AdcnnSimConfig, AllNodesPlacement, ArrivalSpec, FleetConfig, GreedyPlacement, PlacementPolicy,
    SimNode, TenantSpec,
};
use adcnn::nn::zoo;

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "vgg16".to_string());
    let floor: f64 = std::env::args().nth(2).and_then(|s| s.parse().ok()).unwrap_or(0.92);
    let model = zoo::by_name(&name).unwrap_or_else(|| {
        eprintln!("unknown model {name:?}");
        std::process::exit(1);
    });

    let sep = model.separable_prefix;
    let blocks = model.blocks.len();
    let cfg = AdcnnSimConfig { images: 10, ..AdcnnSimConfig::paper_testbed(model, 8) };

    // A Figure-10-shaped accuracy oracle: mild degradation per tile, a
    // steeper penalty for splitting past the separable region (where FDSP
    // blocks global-context layers). A real deployment would tabulate this
    // from Algorithm 1 retraining runs (see the fig10 bench).
    let oracle = move |grid: TileGrid, prefix: usize| -> f64 {
        0.95 - 0.0006 * grid.tiles() as f64 - 0.015 * prefix.saturating_sub(sep) as f64
    };

    let grids =
        [TileGrid::new(2, 2), TileGrid::new(4, 4), TileGrid::new(4, 8), TileGrid::new(8, 8)];
    let prefixes: Vec<usize> =
        [sep / 2, sep, (sep + blocks) / 2, blocks].into_iter().filter(|&p| p > 0).collect();

    println!(
        "planning {name} over {} grids x {:?} prefixes, accuracy floor {floor}",
        grids.len(),
        prefixes
    );
    let plan = plan_deployment(&cfg, &grids, &prefixes, floor, &oracle);

    println!("\n  grid   prefix   latency (ms)   accuracy   feasible");
    for c in &plan.candidates {
        println!(
            "  {:>4}   {:>6}   {:>12.1}   {:>8.3}   {}",
            c.grid.to_string(),
            c.prefix,
            c.latency_s * 1e3,
            c.accuracy,
            if c.feasible { "yes" } else { " no" }
        );
    }
    let chosen = match &plan.chosen {
        Some(c) => {
            println!(
                "\nchosen: {} tiles, split after block {} -> {:.1} ms at accuracy {:.3}",
                c.grid,
                c.prefix,
                c.latency_s * 1e3,
                c.accuracy
            );
            c.clone()
        }
        None => {
            println!("\nno configuration meets the accuracy floor {floor}");
            return;
        }
    };

    // Where would this deployment land on a shared fleet? Put the planned
    // model next to a second tenant on a 24-node cluster and ask each
    // placement policy for its tenant-to-node assignment — the same
    // `PlacementDecision` record the fleet driver embeds in its summary.
    // The roster is wider than either tenant's tile count so the packers
    // have room to pick subsets (the one-node-per-tile latency floor
    // would otherwise force the full roster).
    let planned = TenantSpec {
        grid: chosen.grid,
        prefix: chosen.prefix,
        arrivals: ArrivalSpec::Poisson { rate_per_s: 2.0 },
        ..TenantSpec::new(zoo::by_name(&name).unwrap())
    };
    let neighbor = TenantSpec {
        grid: TileGrid::new(2, 2),
        arrivals: ArrivalSpec::Poisson { rate_per_s: 1.0 },
        ..TenantSpec::new(zoo::resnet18())
    };
    let fleet = FleetConfig::new((0..24).map(|_| SimNode::pi()).collect(), vec![planned, neighbor]);
    fleet.validate().expect("valid fleet");

    println!("\nplacement on a 24-node fleet (planned {name} + background resnet18):");
    let policies: [&dyn PlacementPolicy; 2] = [&AllNodesPlacement, &GreedyPlacement::default()];
    for policy in policies {
        let decision = plan_placement(&fleet, policy);
        println!("  {}:", decision.policy);
        for a in &decision.assignments {
            println!(
                "    {:<10} -> {} nodes {:?}, predicted {:.2} req/s",
                a.tenant,
                a.nodes.len(),
                a.nodes,
                a.predicted_rps
            );
        }
    }
}
