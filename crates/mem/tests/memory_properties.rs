//! Property-based tests for the memory hierarchy: the PSRAM must behave as
//! a lossless multimap of psum fibers under any interleaving, and the cache
//! must agree with an ideal reference model on hit/miss classification.

use flexagon_mem::{CacheConfig, Dram, PassMemo, Psram, PsramConfig, StrCache};
use flexagon_sparse::Element;
use proptest::prelude::*;
use std::collections::{HashMap, VecDeque};

proptest! {
    /// Any interleaving of partial writes to multiple (row, k) fibers is
    /// read back exactly, in write order, regardless of spills.
    #[test]
    fn psram_is_a_lossless_fiber_multimap(
        ops in proptest::collection::vec((0u32..6, 0u32..4, 1usize..12), 1..60),
    ) {
        let mut psram = Psram::new(PsramConfig {
            capacity_bytes: 256, // tiny: forces constant spilling
            block_bytes: 16,
            num_sets: 4,
            banks: 1,
        });
        let mut dram = Dram::with_defaults();
        let mut model: HashMap<(u32, u32), Vec<Element>> = HashMap::new();
        let mut next_coord: HashMap<(u32, u32), u32> = HashMap::new();
        for (row, k, burst) in ops {
            // Coordinates must ascend within a fiber: track a cursor.
            let cursor = next_coord.entry((row, k)).or_insert(0);
            let elems: Vec<Element> = (0..burst as u32)
                .map(|i| Element::new(*cursor + i, (*cursor + i) as f32))
                .collect();
            *cursor += burst as u32;
            psram.partial_write_fiber(row, k, &elems, &mut dram);
            model.entry((row, k)).or_default().extend(elems);
        }
        for ((row, k), want) in model {
            let got = psram.consume_fiber(row, k, &mut dram).into_inner();
            prop_assert_eq!(got, want, "fiber ({}, {})", row, k);
        }
        prop_assert!(psram.is_empty());
    }

    /// A ghost PSRAM is the data PSRAM minus the data: driven by the same
    /// write schedule on the same always-spilling geometry, it allocates,
    /// spills and reloads identically — occupancy, on-chip traffic, DRAM
    /// bytes and DRAM request counts (which set the latency the engine
    /// charges) agree after every write and after everything is consumed.
    #[test]
    fn ghost_psram_mirrors_data_psram(
        ops in proptest::collection::vec((0u32..6, 0u32..4, 1usize..40), 1..60),
    ) {
        let cfg = PsramConfig {
            capacity_bytes: 256,
            block_bytes: 16,
            num_sets: 4,
            banks: 1,
        };
        let (mut data, mut ghost) = (Psram::new(cfg), Psram::new(cfg));
        let (mut data_dram, mut ghost_dram) = (Dram::with_defaults(), Dram::with_defaults());
        let same = |data: &Psram, ghost: &Psram, data_dram: &Dram, ghost_dram: &Dram| {
            (
                data.usage(),
                data.written_elements(),
                data.read_elements(),
                data_dram.written_bytes(),
                data_dram.read_bytes(),
                data_dram.write_requests(),
                data_dram.read_requests(),
            ) == (
                ghost.usage(),
                ghost.written_elements(),
                ghost.read_elements(),
                ghost_dram.written_bytes(),
                ghost_dram.read_bytes(),
                ghost_dram.write_requests(),
                ghost_dram.read_requests(),
            )
        };
        let mut next_coord: HashMap<(u32, u32), u32> = HashMap::new();
        for (row, k, len) in ops {
            let cursor = next_coord.entry((row, k)).or_insert(0);
            let elems: Vec<Element> = (0..len as u32)
                .map(|i| Element::new(*cursor + i, 1.0))
                .collect();
            *cursor += len as u32;
            data.partial_write_fiber(row, k, &elems, &mut data_dram);
            ghost.ghost_write(row, k, len, &mut ghost_dram);
            prop_assert!(
                same(&data, &ghost, &data_dram, &ghost_dram),
                "diverged after writing {} elements to ({}, {})", len, row, k
            );
        }
        prop_assert_eq!(data.rows_with_data(), ghost.rows_with_data());
        for row in data.rows_with_data() {
            prop_assert_eq!(data.fiber_tags_of_row(row), ghost.fiber_tags_of_row(row));
            for k in data.fiber_tags_of_row(row) {
                let fiber = data.consume_fiber(row, k, &mut data_dram);
                let len = ghost.ghost_consume(row, k, &mut ghost_dram);
                prop_assert_eq!(fiber.len() as u64, len, "fiber ({}, {})", row, k);
            }
        }
        prop_assert!(same(&data, &ghost, &data_dram, &ghost_dram), "diverged after consuming");
        prop_assert!(data.is_empty() && ghost.is_empty());
    }

    /// PSRAM traffic accounting: written == read when everything is
    /// consumed (and both equal the total element count).
    #[test]
    fn psram_conserves_elements(
        fibers in proptest::collection::vec((0u32..8, 0u32..3, 1usize..20), 1..20),
    ) {
        let mut psram = Psram::with_defaults();
        let mut dram = Dram::with_defaults();
        let mut total = 0u64;
        let mut seen = std::collections::HashSet::new();
        for (row, k, len) in fibers {
            if !seen.insert((row, k)) {
                continue; // one write burst per fiber keeps coords sorted
            }
            let elems: Vec<Element> =
                (0..len as u32).map(|i| Element::new(i, 1.0)).collect();
            psram.partial_write_fiber(row, k, &elems, &mut dram);
            total += len as u64;
        }
        prop_assert_eq!(psram.written_elements(), total);
        for row in psram.rows_with_data() {
            for k in psram.fiber_tags_of_row(row) {
                psram.consume_fiber(row, k, &mut dram);
            }
        }
        // On-chip reads + spilled reloads cover every element exactly once.
        let spilled = psram.usage().spilled_elements;
        prop_assert_eq!(psram.read_elements() + spilled, total);
    }

    /// The set-associative cache never reports a hit that a fully
    /// associative cache of unlimited size would classify as a first touch.
    #[test]
    fn cache_hits_imply_prior_touch(
        lines in proptest::collection::vec(0u64..64, 1..120),
    ) {
        let mut cache = StrCache::new(CacheConfig {
            capacity_bytes: 1024,
            line_bytes: 32,
            associativity: 2,
            banks: 1,
        });
        let mut dram = Dram::with_defaults();
        let mut touched = std::collections::HashSet::new();
        for &line in &lines {
            let hit = cache.access_line(line, &mut dram);
            if hit {
                prop_assert!(touched.contains(&line), "hit on never-touched line {line}");
            }
            touched.insert(line);
        }
    }

    /// LRU within a set: the cache behaves exactly like a per-set LRU queue
    /// reference model.
    #[test]
    fn cache_matches_lru_reference(
        lines in proptest::collection::vec(0u64..48, 1..200),
    ) {
        let cfg = CacheConfig {
            capacity_bytes: 512,
            line_bytes: 16,
            associativity: 4,
            banks: 1,
        };
        let sets = cfg.num_sets();
        let mut cache = StrCache::new(cfg);
        let mut dram = Dram::with_defaults();
        let mut model: Vec<VecDeque<u64>> = vec![VecDeque::new(); sets as usize];
        for &line in &lines {
            let set = (line % sets) as usize;
            let model_hit = model[set].contains(&line);
            let hit = cache.access_line(line, &mut dram);
            prop_assert_eq!(hit, model_hit, "line {} divergence", line);
            if model_hit {
                model[set].retain(|&l| l != line);
            } else if model[set].len() == 4 {
                model[set].pop_front();
            }
            model[set].push_back(line);
        }
    }

    /// A repeated `stream_pass` is the same ranges read pass after pass:
    /// against a twin cache driven by plain `read_range`, the statistics,
    /// fill and on-chip bytes, DRAM reads and the channel's busy cycles
    /// agree after every pass, whether or not the ranges fit the cache.
    #[test]
    fn stream_pass_matches_repeated_read_ranges(
        (line_shift, ways, set_shift) in (2u32..6, 1u32..5, 0u32..4),
        ranges in proptest::collection::vec((0u64..400, 0u64..300), 0..12),
        passes in 1usize..6,
    ) {
        let line_bytes = 1u64 << line_shift;
        let cfg = CacheConfig {
            capacity_bytes: (line_bytes * u64::from(ways)) << set_shift,
            line_bytes,
            associativity: ways,
            banks: 1,
        };
        let (mut memoized, mut plain) = (StrCache::new(cfg), StrCache::new(cfg));
        let (mut memo_dram, mut plain_dram) = (Dram::with_defaults(), Dram::with_defaults());
        let mut memo = PassMemo::default();
        for pass in 0..passes {
            memoized.stream_pass(ranges.iter().copied(), &mut memo_dram, &mut memo);
            for &(first, n) in &ranges {
                plain.read_range(first, n, &mut plain_dram);
            }
            prop_assert_eq!(memoized.stats(), plain.stats(), "pass {}", pass);
            prop_assert_eq!(memoized.fill_bytes(), plain.fill_bytes(), "pass {}", pass);
            prop_assert_eq!(memoized.onchip_bytes(), plain.onchip_bytes(), "pass {}", pass);
            prop_assert_eq!(memo_dram.read_bytes(), plain_dram.read_bytes(), "pass {}", pass);
            prop_assert_eq!(memo_dram.read_requests(), plain_dram.read_requests(), "pass {}", pass);
            prop_assert_eq!(
                memo_dram.take_busy_cycles(),
                plain_dram.take_busy_cycles(),
                "pass {}", pass
            );
        }
    }

    /// Fill traffic equals misses times the line size.
    #[test]
    fn fill_traffic_is_miss_lines(
        ranges in proptest::collection::vec((0u64..2000, 1u64..50), 1..40),
    ) {
        let mut cache = StrCache::with_defaults();
        let mut dram = Dram::with_defaults();
        let mut misses = 0u64;
        for (start, len) in ranges {
            let out = cache.read_range(start, len, &mut dram);
            misses += out.misses;
        }
        prop_assert_eq!(cache.fill_bytes(), misses * 128);
        prop_assert_eq!(dram.read_bytes(), cache.fill_bytes());
    }
}
