//! The paper's GTS pipeline (§IV.A), end to end and fully functional:
//!
//! 1. four GTS ranks push particles and output `zion`/`electrons` arrays
//!    (7 attributes each) every two cycles, through FlexIO stream mode
//!    with the process-group I/O pattern;
//! 2. a **Data Conditioning plug-in** — the velocity bounding box — is
//!    deployed from the analytics side *into the simulation's address
//!    space*, so the ~20% range query runs before data crosses the
//!    transport;
//! 3. two analytics ranks compute the particle distribution function,
//!    merge 1-D/2-D histograms across ranks, and write them as CSV files
//!    for parallel-coordinates visualization.
//!
//! Run with: `cargo run --example gts_pipeline`

use std::thread;

use adios::{ReadEngine, Selection, StepStatus, VarValue, WriteEngine};
use apps::gts::{Gts, GtsConfig, ATTRS, VPAR};
use apps::{distribution_function, Histogram1D, Histogram2D};
use flexio::{FlexIo, PluginPlacement, PluginSpec, StreamHints};
use machine::{laptop, CoreLocation};

const SIM_RANKS: usize = 4;
const ANA_RANKS: usize = 2;
const CYCLES: u64 = 8; // → 4 output steps at interval 2

fn main() {
    let io = FlexIo::single_node(laptop());
    let hints = StreamHints { batching: true, ..StreamHints::default() };

    // --- estimate the ~20%-core velocity band from a throwaway rank so
    //     the reader can parameterize its DC plug-in up front.
    let probe = Gts::new(0, GtsConfig::default());
    let dist = distribution_function(&probe.zion().data, 256, (-2.0, 2.0));
    let (v_lo, v_hi) = (dist.quantile(0.40), dist.quantile(0.60));
    println!("range query band: v_par in [{v_lo:.3}, {v_hi:.3}] (~20% of particles)");

    let io_w = io.clone();
    let hints_w = hints.clone();
    let sim = thread::spawn(move || {
        rankrt::launch_named(SIM_RANKS, "gts", move |comm| {
            let rank = comm.rank();
            let roster: Vec<CoreLocation> =
                (0..SIM_RANKS).map(|r| laptop().node.location_of(r)).collect();
            let mut writer = io_w
                .open_writer(
                    "gts.particles",
                    rank,
                    SIM_RANKS,
                    roster[rank],
                    roster,
                    hints_w.clone(),
                )
                .expect("open writer");
            let mut gts =
                Gts::new(rank, GtsConfig { particles_per_rank: 3000, ..Default::default() });
            let mut written = 0u64;
            for _ in 0..CYCLES {
                gts.step();
                if gts.should_output() {
                    writer.begin_step(gts.cycle());
                    for (name, value) in gts.output_vars() {
                        // GTS writes whole particle arrays; the plug-in
                        // needs the flat v_par column alongside.
                        writer.write(&name, value);
                    }
                    writer.write(
                        "v_par",
                        VarValue::Block(
                            adios::LocalBlock {
                                global_shape: vec![gts.zion().len() as u64],
                                offset: vec![0],
                                count: vec![gts.zion().len() as u64],
                                data: adios::ArrayData::F64(gts.zion().column(VPAR)),
                            }
                            .validated(),
                        ),
                    );
                    writer.end_step();
                    written += 1;
                }
            }
            writer.close();
            written
        })
    });

    let io_r = io.clone();
    let ana = thread::spawn(move || {
        rankrt::launch_named(ANA_RANKS, "analytics", move |comm| {
            let rank = comm.rank();
            let roster: Vec<CoreLocation> =
                (0..ANA_RANKS).map(|r| laptop().node.location_of(15 - r)).collect();
            let mut reader = io_r
                .open_reader("gts.particles", rank, ANA_RANKS, roster[rank], roster, hints.clone())
                .expect("open reader");
            // Reader rank j consumes the process groups of writers j, j+2.
            let my_writers = [rank, rank + ANA_RANKS];
            for w in my_writers {
                reader.subscribe("zion", Selection::ProcessGroup(w));
                reader.subscribe("v_par", Selection::ProcessGroup(w));
                reader.subscribe("nparticles", Selection::ProcessGroup(w));
            }
            // Deploy the range query INTO the simulation (writer side):
            // only the ~20% core band crosses the transport.
            if rank == 0 {
                reader.install_plugin(PluginSpec {
                    var: "v_par".to_string(),
                    source: codelet::plugins::bounding_box("v_par", v_lo, v_hi).into(),
                    placement: PluginPlacement::WriterSide,
                });
            }

            let mut h1 = Histogram1D::new(v_lo - 0.05, v_hi + 0.05, 32);
            let mut h2 = Histogram2D::new((v_lo, v_hi), (0.0, 1.5), 16, 16);
            let mut total_in = 0u64;
            let mut total_selected = 0u64;
            let mut steps = 0u64;
            loop {
                match reader.begin_step() {
                    StepStatus::Step(_) => {
                        for w in my_writers {
                            let n = match reader.read("nparticles", &Selection::ProcessGroup(w)) {
                                Some(VarValue::Scalar(adios::ScalarValue::U64(n))) => n,
                                _ => 0,
                            };
                            total_in += n;
                            if let Some(VarValue::Block(selected)) =
                                reader.read("v_par", &Selection::ProcessGroup(w))
                            {
                                let vals = selected.data.as_f64();
                                total_selected += vals.len() as u64;
                                for &v in vals {
                                    h1.add(v);
                                    h2.add(v, v.abs());
                                }
                            }
                        }
                        steps += 1;
                        reader.end_step();
                    }
                    StepStatus::EndOfStream => break,
                }
            }
            // Merge across analytics ranks (histogram reduction).
            let merged = comm.allreduce_sum_f64_vec(&h1.bins);
            h1.bins = merged;
            let merged2 = comm.allreduce_sum_f64_vec(&h2.bins);
            h2.bins = merged2;
            let selected = comm.allreduce_sum_u64(total_selected);
            let seen = comm.allreduce_sum_u64(total_in);
            if rank == 0 {
                let dir = std::env::temp_dir().join("flexio-gts-pipeline");
                std::fs::create_dir_all(&dir).expect("outdir");
                let csv = dir.join("vpar_hist.csv");
                std::fs::write(&csv, h1.to_csv()).expect("write histogram");
                println!("steps analyzed: {steps}");
                println!(
                    "selectivity: {selected}/{seen} = {:.1}% (paper: ~20%)",
                    selected as f64 / seen as f64 * 100.0
                );
                println!("1-D histogram written to {}", csv.display());
                println!("2-D histogram mass: {}", h2.total());
            }
            (seen, selected)
        })
    });

    let written = sim.join().expect("sim");
    let results = ana.join().expect("ana");
    assert!(written.iter().all(|&w| w == CYCLES / 2));
    let (seen, selected) = results[0];
    let frac = selected as f64 / seen as f64;
    assert!((0.10..=0.35).contains(&frac), "selectivity {frac} strayed from the ~20% band");
    assert_eq!(ATTRS, 7, "paper's seven-attribute layout");
    println!("GTS pipeline complete.");
}
