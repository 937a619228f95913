//! The §4 Marshall University story: a 264-core production cluster
//! running another management system is torn down and rebuilt from
//! scratch with XCBC ("XSEDE campus bridging staff spent a week on site
//! working with the Marshall University IT staff").
//!
//! ```sh
//! cargo run --example marshall_rebuild
//! ```

use xcbc::cluster::topology::{ClusterSpec, NetworkSpec};
use xcbc::cluster::{gpu_peak_gflops, hw, NodeRole, NodeSpec};
use xcbc::core::deploy::deploy_from_scratch;
use xcbc::rocks::cluster_fork;
use xcbc::sim::span_end;

/// Marshall's cluster per Table 3: 22 nodes, 264 cores (12/node), 8 GPU
/// nodes with 3584 CUDA cores total.
fn marshall_cluster() -> ClusterSpec {
    // 12-core Westmere-class nodes (2 × 6 cores at 2.8 GHz, 4 DP
    // flops/cycle => ~134 GF/node; 22 nodes ≈ 3 TF CPU-side + ~10 TF of
    // single-precision GPU gets the site to its published "6.0 TF" class)
    let westmere: hw::CpuModel = hw::CpuModel {
        name: "Intel Xeon X5660",
        clock_ghz: 2.8,
        cores: 6,
        flops_per_cycle: 4,
        tdp_watts: 95.0,
        measured_watts: 95.0,
        hyperthreading: true,
        socket: "LGA-1366",
    };
    let server_board = hw::Motherboard {
        name: "dual-socket server board",
        form_factor: hw::FormFactor::Atx,
        socket: "LGA-1366",
        msata_slot: false,
        nic_count: 2,
    };
    let mut c = ClusterSpec::new(
        "Marshall BigGreen (rebuilt)",
        NetworkSpec::gigabit_ethernet(48),
    );
    c.weight_lbs = 2200.0; // a real rack, not a luggable
    for i in 0..22 {
        let role = if i == 0 {
            NodeRole::Frontend
        } else {
            NodeRole::Compute
        };
        let mut b = NodeSpec::new(
            if i == 0 {
                "biggreen".to_string()
            } else {
                format!("compute-0-{}", i - 1)
            },
            role,
        )
        .board(server_board.clone())
        .cpu(westmere.clone())
        .sockets(2)
        .ram_gb(48)
        .disk(hw::LAPTOP_HDD_500GB)
        .cooler(hw::INTEL_STOCK_COOLER)
        .psu(hw::Psu {
            name: "server 750W",
            watts: 750.0,
        });
        if i == 0 {
            b = b.nic(hw::GBE_NIC);
        }
        c.nodes.push(b.build());
    }
    c
}

fn main() {
    let cluster = marshall_cluster();
    println!(
        "Marshall University rebuild: {} nodes, {} cores, {:.2} TF CPU Rpeak",
        cluster.node_count(),
        cluster.compute_cores(),
        cluster.rpeak_gflops() / 1000.0
    );
    assert_eq!(cluster.compute_cores(), 264, "Table 3: 264 cores");
    println!(
        "GPU side: 8 nodes host 3584 CUDA cores ≈ {:.1} TF single-precision",
        gpu_peak_gflops(3584, 1.4, 2) / 1000.0
    );

    println!("\nTearing down the prior management system and rebuilding with XCBC...");
    let report = deploy_from_scratch(&cluster).expect("diskful rack installs");
    println!(
        "  {} nodes reinstalled; wall-clock {:.1} hours of install time",
        report.nodes_reinstalled,
        span_end(&report.trace).as_secs_f64() / 3600.0
    );
    println!(
        "  XSEDE compatibility after rebuild: {:.1}%",
        report.compat.score * 100.0
    );

    // the campus-bridging verification pass: cluster-fork across nodes
    let mut rocks_cli = xcbc::rocks::RocksCli::new("biggreen");
    rocks_cli.db.add_frontend("ff:ff", 12).unwrap();
    for i in 0..21 {
        rocks_cli
            .db
            .add_host(
                xcbc::rocks::Appliance::Compute,
                0,
                &format!("aa:{i:02x}"),
                12,
            )
            .unwrap();
    }
    let fork = cluster_fork(&rocks_cli.db, "rpm -q gromacs", |_, _| {
        (0, "  gromacs-4.6.5-1.el6.x86_64\n".to_string())
    });
    println!(
        "\ncluster-fork verification across {} computes: all succeeded = {}",
        fork.results.len(),
        fork.all_succeeded()
    );
    println!("\n\"...to the significant satisfaction of the professor responsible for it.\"");
}
