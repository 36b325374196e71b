//! Property tests pinning the `parse.rs`/`block.rs` contract the corpus and
//! the scenario matrix rely on: every block the generator can produce — under
//! *any* [`GeneratorConfig`], not just the default profile — prints to text
//! that parses back to the identical block, and printing is a fixed point.
//!
//! The BHive-style corpus (`difftune-bhive`) layers application profiles with
//! very different class mixes and memory-operand densities on top of the
//! generator, and the matrix fingerprints/checkpoints hash block *text*, so a
//! single non-round-tripping spelling would silently corrupt dataset
//! fingerprints and resume checks.

use difftune_isa::{BasicBlock, BlockGenerator, GeneratorConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A generator configuration drawn from a seed: one of several class-weight
/// subsets of the default mix (mirroring how the corpus profiles slice it),
/// with swept memory-operand and dependency densities.
fn config_for(profile: usize, mem_operand_prob: f64, dependency_prob: f64) -> GeneratorConfig {
    let default = GeneratorConfig::default();
    let class_weights = match profile % 4 {
        0 => default.class_weights.clone(),
        // Scalar-ish front half of the mix.
        1 => default.class_weights[..6].to_vec(),
        // Vector/FP-ish back half.
        2 => default.class_weights[6..].to_vec(),
        // Every other class.
        _ => default.class_weights.iter().step_by(2).cloned().collect(),
    };
    GeneratorConfig {
        class_weights,
        mem_operand_prob,
        dependency_prob,
        min_len: 1,
        max_len: 24,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// parse → `Display` → re-parse is the identity on generated blocks, and
    /// the printed text is already canonical (printing again changes
    /// nothing).
    #[test]
    fn generated_blocks_round_trip_under_any_generator_config(
        seed in 0u64..100_000,
        profile in 0usize..4,
        mem_operand_prob in 0.0f64..1.0,
        dependency_prob in 0.0f64..1.0,
        len in 1usize..24,
    ) {
        let generator = BlockGenerator::new(config_for(profile, mem_operand_prob, dependency_prob));
        let mut rng = StdRng::seed_from_u64(seed);
        let block = generator.generate_with_len(&mut rng, len);
        prop_assert_eq!(block.len(), len);

        let text = block.to_string();
        let reparsed: BasicBlock = text
            .parse()
            .unwrap_or_else(|error| panic!("generated block failed to parse: {error}\n{text}"));
        prop_assert_eq!(&reparsed, &block, "parse(display(block)) != block for:\n{}", text);
        prop_assert_eq!(reparsed.to_string(), text, "printing is not a fixed point");
    }

    /// Instruction-level round-trip: each line of a printed block parses back
    /// to exactly that instruction, so blocks can be rebuilt line by line
    /// (the corpus deduplicates on text and relies on this).
    #[test]
    fn each_printed_line_parses_back_to_its_instruction(
        seed in 0u64..100_000,
        profile in 0usize..4,
        len in 1usize..12,
    ) {
        let generator = BlockGenerator::new(config_for(profile, 0.5, 0.5));
        let mut rng = StdRng::seed_from_u64(seed);
        let block = generator.generate_with_len(&mut rng, len);
        for inst in block.iter() {
            let line = inst.to_string();
            let single: BasicBlock = line
                .parse()
                .unwrap_or_else(|error| panic!("line failed to parse: {error}\n{line}"));
            prop_assert_eq!(single.len(), 1);
            prop_assert_eq!(&single.iter().next().unwrap().to_string(), &line);
        }
    }

    /// Spelling variants of a printed block (upper-case mnemonics, spaces
    /// around every comma, tabs and padding, `;` separators) parse to the
    /// same block, so `render(parse(variant(render(b)))) == render(b)`.
    #[test]
    fn spelling_variants_parse_back_to_the_printed_block(
        seed in 0u64..100_000,
        profile in 0usize..4,
        len in 1usize..12,
    ) {
        let generator = BlockGenerator::new(config_for(profile, 0.5, 0.5));
        let mut rng = StdRng::seed_from_u64(seed);
        let block = generator.generate_with_len(&mut rng, len);
        let text = block.to_string();
        let variant = text
            .lines()
            .map(|line| {
                let (mnemonic, operands) = line.split_once(' ').unwrap_or((line, ""));
                format!(
                    "  {} \t {} ",
                    mnemonic.to_ascii_uppercase(),
                    operands.replace(',', " , ")
                )
            })
            .collect::<Vec<_>>()
            .join(";");
        let reparsed: BasicBlock = variant
            .parse()
            .unwrap_or_else(|error| panic!("variant failed to parse: {error}\n{variant}"));
        prop_assert_eq!(&reparsed, &block, "variant:\n{}", variant);
        prop_assert_eq!(reparsed.to_string(), text);
    }
}
