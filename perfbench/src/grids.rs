//! Workload inputs: `GridSpec` text generated from the workload seed.
//!
//! The seed shifts every seed axis of the generated text; the simulator
//! only ever sees that text.

/// First scenario seed of the grids generated for workload seed `seed`.
pub fn seed_base(seed: u64) -> u64 {
    1 + (seed % 1_000_000_000) * 1000
}

fn seed_list(first: u64, count: u64) -> String {
    (first..first + count)
        .map(|s| s.to_string())
        .collect::<Vec<_>>()
        .join(", ")
}

/// `lpl_deep`: the paper's channel-17/26 LPL grid under 18 % interference
/// (eight seeds × two channels) plus the Blink profile, each cell one node
/// simulated for half an hour on the ideal medium.
pub fn lpl_deep(seed: u64) -> String {
    let base = seed_base(seed);
    format!(
        "[grid]\nname = lpl_deep\nseconds = 1800\n\n\
         [cell.lpl]\napp = lpl\ninterference = 0.18\nseeds = {}\nchannels = 17, 26\n\
         name = lpl_ch{{channel}}_seed{{seed}}\n\n\
         [cell.blink]\napp = blink\nseeds = {base}\nname = blink_seed{{seed}}\n",
        seed_list(base, 8)
    )
}

/// Bounce pairs per `wide_path_loss` cell.
pub const WIDE_PAIRS: u32 = 512;

/// `wide_path_loss`: six Bounce-pairs cells of 1024 nodes strung along a
/// path-loss line (the `stress.grid` layout), simulated briefly.  Six
/// cells rather than two large ones: each worker reuses its pooled
/// workspace within a pass and the two workers balance.  Two large cells
/// would make every pass hinge on one fresh allocation per worker, whose
/// cost swings with the host's memory contention.
pub fn wide_path_loss(seed: u64) -> String {
    let base = seed_base(seed);
    format!(
        "[grid]\nname = wide_path_loss\nseconds = 3\n\n\
         [cell.wide]\napp = bounce_pairs\npairs = {WIDE_PAIRS}\nseeds = {}\nmedium = path_loss\n\
         placement = line 30 5\nname = wide_{{nodes}}n_seed{{seed}}\n",
        seed_list(base, 6)
    )
}

/// `sharded_sweep`: tens of short LPL and path-loss Bounce cells.
pub fn sharded_sweep(seed: u64) -> String {
    let base = seed_base(seed);
    format!(
        "[grid]\nname = sharded_sweep\nseconds = 60\n\n\
         [cell.lpl]\napp = lpl\ninterference = 0.18\nseeds = {}\nchannels = 17, 26\n\
         name = lpl_ch{{channel}}_seed{{seed}}\n\n\
         [cell.bounce]\napp = bounce\nseeds = {}\nseconds = 1\nmedium = path_loss\n\
         positions = 1:0,0 4:10,0\nname = bounce_pl_seed{{seed}}\n",
        seed_list(base, 8),
        seed_list(base, 8)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use quanto_fleet::{FleetRunner, GridSpec};

    fn all_grids(seed: u64) -> Vec<String> {
        vec![lpl_deep(seed), wide_path_loss(seed), sharded_sweep(seed)]
    }

    #[test]
    fn same_seed_gives_the_same_grid_text() {
        assert_eq!(all_grids(7), all_grids(7));
        assert_ne!(all_grids(7), all_grids(8));
        for text in all_grids(7) {
            let cells = GridSpec::parse(&text).unwrap().expand().unwrap();
            assert!(!cells.is_empty());
        }
    }

    #[test]
    fn different_seeds_give_different_reference_digests() {
        let digest = |seed| {
            let cells = GridSpec::parse(&sharded_sweep(seed))
                .unwrap()
                .expand()
                .unwrap();
            FleetRunner::sequential().run(cells).digest()
        };
        assert_eq!(digest(1), digest(1));
        assert_ne!(digest(1), digest(2));
    }
}
