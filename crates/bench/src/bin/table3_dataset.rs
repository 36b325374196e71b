//! Table III: dataset summary statistics.

#![forbid(unsafe_code)]

use difftune_bench::outln;
use difftune_bench::{dataset_for, Scale};
use difftune_cpu::Microarch;

fn main() {
    let scale = Scale::from_env_or_exit();
    outln!("Table III: dataset summary statistics (scale: {scale:?})\n");

    let haswell = dataset_for(Microarch::Haswell, scale, 0);
    let summary = haswell.summary();
    let (train, validation, test) = summary.split_sizes;
    outln!("# Blocks");
    outln!("  Train                {train}");
    outln!("  Validation           {validation}");
    outln!("  Test                 {test}");
    outln!("  Total                {}", haswell.len());
    outln!("Block length");
    outln!("  Min                  {}", summary.min_block_len);
    outln!("  Median               {}", summary.median_block_len);
    outln!("  Mean                 {:.2}", summary.mean_block_len);
    outln!("  Max                  {}", summary.max_block_len);
    outln!("Median block timing (cycles per iteration x 100, as reported by BHive)");
    for uarch in Microarch::ALL {
        let dataset = if uarch == Microarch::Haswell {
            haswell.clone()
        } else {
            dataset_for(uarch, scale, 0)
        };
        outln!(
            "  {:<20} {:.0}",
            uarch.name(),
            dataset.summary().median_timing * 100.0
        );
    }
    outln!("# Unique opcodes");
    outln!("  Train                {}", summary.unique_opcodes_train);
    outln!("  Test                 {}", summary.unique_opcodes_test);
    outln!("  Total                {}", summary.unique_opcodes);
}
