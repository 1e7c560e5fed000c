//! A protocol's declared classes compiled into the form the engines
//! consume.

use super::Class;
use crate::protocol::{ClassSpec, CrossDirection, InteractionClass, InteractionSchema, State};

/// A protocol's [`InteractionSchema`] flattened into the form the engines
/// consume: flags per structured class, the equal-rank membership bitset,
/// and the enumerated sparse pairs with their groups and partner rows.
#[derive(Debug, Clone, Default)]
pub(crate) struct CompiledSchema {
    /// Whether each class may batch, indexed by [`Class`]: every
    /// declaration of it is exchangeable (true for an undeclared class).
    pub(super) exchangeable: [bool; 4],
    /// Whether the `EqualRank` class is declared.
    pub(super) eq: bool,
    /// Bitset over rank states: bit `s` set iff an equal-rank rule exists
    /// at `s` (empty when `eq` is false). A bitset rather than
    /// `Vec<bool>` — at `n = 2³⁰` rank states that is 128 MB vs 1 GB.
    pub(super) has_eq: Vec<u64>,
    /// Whether the `ExtraExtra` class is declared.
    pub(super) xx: bool,
    /// Declared cross direction(s), if any (two single-direction
    /// declarations merge into `Both`).
    pub(super) cross: Option<CrossDirection>,
    /// Enumerated sparse pairs, reordered group-contiguously: stably
    /// sorted by initiator state, so each initiator's pairs form one
    /// contiguous index range (a *group* — the unit of the two-level
    /// sparse weight hierarchy and of parallel sparse split tasks).
    pub(super) pairs: Vec<(State, State)>,
    /// Group boundaries: group `g` owns pairs
    /// `group_off[g]..group_off[g + 1]` (length `num_groups + 1`; one
    /// group per distinct initiator state, in ascending state order).
    pub(super) group_off: Vec<u32>,
    /// Group of the pairs state `s` initiates, or [`ABSENT`] when it
    /// initiates none (length `num_states`, empty when there are no
    /// pairs).
    pub(super) state_group: Vec<u32>,
    /// CSR offsets into [`partners`](Self::partners): state `s`'s partner
    /// row is `partners[partner_off[s]..partner_off[s + 1]]` (length
    /// `num_states + 1`, empty when there are no pairs).
    partner_off: Vec<u32>,
    /// Partner rows: one entry per distinct off-diagonal partner of each
    /// state, so a pair declared in both directions is one entry per row.
    partners: Vec<Partner>,
    /// Index of the diagonal pair `(s, s)`, or [`ABSENT`] (length
    /// `num_states`, empty when there are no pairs).
    pub(super) diag: Vec<u32>,
}

/// An absent index: an undeclared direction in a [`Partner`] entry, a
/// state without a diagonal pair in [`CompiledSchema::diag`], or a state
/// that initiates no pair in [`CompiledSchema::state_group`].
pub(crate) const ABSENT: u32 = u32::MAX;

/// One entry of state `s`'s partner row: a state `t ≠ s` that shares at
/// least one declared pair with `s`, and the indices of the pairs
/// `(s, t)` (in `s`'s group) and `(t, s)` (in `t`'s group), [`ABSENT`]
/// where that direction is undeclared. Both directions weigh
/// `c_s·c_t`, so one entry carries everything a count change of `s` does
/// to them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Partner {
    pub(super) state: u32,
    pub(super) out_pair: u32,
    pub(super) in_pair: u32,
}

impl Partner {
    /// Number of declared directions, 1 or 2: the weight of `c_s` in
    /// `partner_sum[t]` and of `c_t` in `partner_sum[s]`.
    #[inline]
    pub(super) fn directions(&self) -> u64 {
        (self.out_pair != ABSENT) as u64 + (self.in_pair != ABSENT) as u64
    }
}

impl CompiledSchema {
    /// Whether rank state `s` has an equal-rank rule.
    #[inline]
    pub fn eq_rule(&self, s: usize) -> bool {
        self.eq && (self.has_eq[s >> 6] >> (s & 63)) & 1 != 0
    }

    /// State `s`'s partner row. Only for schemas with pairs.
    #[inline]
    pub fn partner_row(&self, s: usize) -> &[Partner] {
        let lo = self.partner_off[s] as usize;
        let hi = self.partner_off[s + 1] as usize;
        &self.partners[lo..hi]
    }

    /// Number of sparse groups (distinct initiator states).
    #[inline]
    pub fn num_groups(&self) -> usize {
        self.group_off.len().saturating_sub(1)
    }

    /// Pair-index range owned by group `g`.
    #[inline]
    pub fn group_range(&self, g: usize) -> (usize, usize) {
        (self.group_off[g] as usize, self.group_off[g + 1] as usize)
    }

    /// Flatten `p`'s declared classes.
    ///
    /// # Panics
    ///
    /// Panics on declarations no engine can execute: duplicate structured
    /// classes, duplicate enumerated pairs (found while the partner rows
    /// are built), or pair states out of range.
    /// (Semantic agreement with the transition function is checked by
    /// [`crate::protocol::validate_interaction_schema`], not here.)
    pub fn compile<P: InteractionSchema + ?Sized>(p: &P) -> Self {
        let num_ranks = p.num_rank_states();
        let num_states = p.num_states();
        let mut schema = CompiledSchema {
            exchangeable: [true; 4],
            ..CompiledSchema::default()
        };
        for ClassSpec {
            class,
            exchangeable,
        } in p.interaction_classes()
        {
            let c = match class {
                InteractionClass::EqualRank => {
                    assert!(!schema.eq, "EqualRank class declared twice");
                    schema.eq = true;
                    Class::Eq
                }
                InteractionClass::ExtraExtra => {
                    assert!(!schema.xx, "ExtraExtra class declared twice");
                    schema.xx = true;
                    Class::Xx
                }
                InteractionClass::RankExtra(d) => {
                    schema.cross = Some(match (schema.cross, d) {
                        (None, d) => d,
                        (Some(CrossDirection::RankInitiator), CrossDirection::ExtraInitiator)
                        | (Some(CrossDirection::ExtraInitiator), CrossDirection::RankInitiator) => {
                            CrossDirection::Both
                        }
                        (Some(prev), d) => {
                            panic!("RankExtra directions {prev:?} and {d:?} overlap")
                        }
                    });
                    Class::Cross
                }
                InteractionClass::Pair {
                    initiator,
                    responder,
                } => {
                    assert!(
                        (initiator as usize) < num_states && (responder as usize) < num_states,
                        "sparse pair ({initiator},{responder}) out of state range"
                    );
                    schema.pairs.push((initiator, responder));
                    Class::Sparse
                }
            };
            schema.exchangeable[c as usize] &= exchangeable;
        }
        if schema.eq {
            let rule = |s: usize| (p.equal_rank_rule(s as State) as u64) << (s & 63);
            schema.has_eq = (0..num_ranks.div_ceil(64))
                .map(|w| (w * 64..num_ranks.min(w * 64 + 64)).fold(0, |word, s| word | rule(s)))
                .collect();
        }
        if !schema.pairs.is_empty() {
            // Group-contiguous reorder: one group per distinct initiator
            // state. Pair order is not semantically observable — schema
            // validation is set-based, and both engines sample pairs
            // weight-proportionally through the same structure — so the
            // stable sort is free to pick the layout the two-level
            // hierarchy wants: each group a contiguous pair-index range.
            schema.pairs.sort_by_key(|&(a, _)| a);
            schema.build_partner_rows(num_states);
        }
        schema
    }

    /// Build the groups and the partner rows over the initiator-sorted
    /// `pairs`, rejecting duplicates on the way: a repeated responder in a
    /// state's own group, a second diagonal, or a repeated initiator among
    /// a state's in-pairs is a pair declared twice. `O(num_states +
    /// num_pairs)`.
    fn build_partner_rows(&mut self, num_states: usize) {
        let pairs = &self.pairs;
        let np = pairs.len();
        let declared_twice = |pi: usize| -> ! {
            let (initiator, responder) = pairs[pi];
            panic!("sparse pair ({initiator},{responder}) declared twice")
        };
        let mut state_group = vec![ABSENT; num_states];
        let mut group_off: Vec<u32> = Vec::new();
        // In-pairs by responder (counting sort, ascending pair index):
        // after the fill, state `s`'s in-pairs are
        // `in_pairs[in_end[s - 1]..in_end[s]]` (from 0 for `s = 0`).
        let mut in_end = vec![0u32; num_states + 1];
        for (i, &(a, b)) in pairs.iter().enumerate() {
            if state_group[a as usize] == ABSENT {
                state_group[a as usize] = group_off.len() as u32;
                group_off.push(i as u32);
            }
            if a != b {
                in_end[b as usize + 1] += 1;
            }
        }
        group_off.push(np as u32);
        for s in 0..num_states {
            in_end[s + 1] += in_end[s];
        }
        let mut in_pairs = vec![0u32; in_end[num_states] as usize];
        for (i, &(a, b)) in pairs.iter().enumerate() {
            if a != b {
                let e = &mut in_end[b as usize];
                in_pairs[*e as usize] = i as u32;
                *e += 1;
            }
        }
        // Each row: the state's own group in pair order, then the in-pairs
        // whose initiator is not already a partner. `slot[t]` is `t`'s
        // entry in the row being built if it is at or past `row_start`.
        let mut partners: Vec<Partner> = Vec::with_capacity(in_pairs.len());
        let mut partner_off = Vec::with_capacity(num_states + 1);
        let mut diag = vec![ABSENT; num_states];
        let mut slot = vec![ABSENT; num_states];
        partner_off.push(0u32);
        let mut in_start = 0usize;
        for s in 0..num_states {
            let row_start = partners.len();
            let in_row = |e: u32| e != ABSENT && e as usize >= row_start;
            let g = state_group[s];
            if g != ABSENT {
                let (lo, hi) = (group_off[g as usize], group_off[g as usize + 1]);
                for pi in lo..hi {
                    let t = pairs[pi as usize].1;
                    if t as usize == s {
                        if diag[s] != ABSENT {
                            declared_twice(pi as usize);
                        }
                        diag[s] = pi;
                        continue;
                    }
                    if in_row(slot[t as usize]) {
                        declared_twice(pi as usize);
                    }
                    slot[t as usize] = partners.len() as u32;
                    partners.push(Partner {
                        state: t,
                        out_pair: pi,
                        in_pair: ABSENT,
                    });
                }
            }
            let in_stop = in_end[s] as usize;
            for &pi in &in_pairs[in_start..in_stop] {
                let t = pairs[pi as usize].0;
                let e = slot[t as usize];
                if in_row(e) {
                    let entry = &mut partners[e as usize];
                    if entry.in_pair != ABSENT {
                        declared_twice(pi as usize);
                    }
                    entry.in_pair = pi;
                } else {
                    slot[t as usize] = partners.len() as u32;
                    partners.push(Partner {
                        state: t,
                        out_pair: ABSENT,
                        in_pair: pi,
                    });
                }
            }
            in_start = in_stop;
            partner_off.push(partners.len() as u32);
        }
        self.group_off = group_off;
        self.state_group = state_group;
        self.partner_off = partner_off;
        self.partners = partners;
        self.diag = diag;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classes::tests::MultiGroup;
    use crate::protocol::Protocol;

    #[test]
    fn compile_merges_single_direction_crosses() {
        struct TwoDir;
        impl Protocol for TwoDir {
            fn name(&self) -> &str {
                "two-dir"
            }
            fn population_size(&self) -> usize {
                2
            }
            fn num_states(&self) -> usize {
                3
            }
            fn num_rank_states(&self) -> usize {
                2
            }
            fn transition(&self, i: State, r: State) -> Option<(State, State)> {
                let rank = |s: State| s < 2;
                (rank(i) != rank(r)).then_some(if rank(i) { (i, 0) } else { (0, r) })
            }
        }
        impl InteractionSchema for TwoDir {
            fn interaction_classes(&self) -> Vec<ClassSpec> {
                vec![
                    ClassSpec::rank_extra(CrossDirection::RankInitiator),
                    ClassSpec::rank_extra(CrossDirection::ExtraInitiator),
                ]
            }
        }
        crate::protocol::validate_interaction_schema(&TwoDir).unwrap();
        let schema = CompiledSchema::compile(&TwoDir);
        assert_eq!(schema.cross, Some(CrossDirection::Both));
    }

    #[test]
    #[should_panic(expected = "sparse pair (2,2) declared twice")]
    fn compile_rejects_a_pair_declared_twice() {
        // The repeat is not adjacent to its first declaration.
        let _ = CompiledSchema::compile(&Declared(vec![(2, 2), (0, 1), (2, 2)]));
    }

    #[test]
    fn compiled_eq_bitset_matches_protocol_rule() {
        // A rule set that straddles a 64-bit word boundary.
        struct Striped;
        impl Protocol for Striped {
            fn name(&self) -> &str {
                "striped"
            }
            fn population_size(&self) -> usize {
                100
            }
            fn num_states(&self) -> usize {
                100
            }
            fn num_rank_states(&self) -> usize {
                100
            }
            fn transition(&self, i: State, r: State) -> Option<(State, State)> {
                (i == r && i.is_multiple_of(3)).then(|| (i, (r + 1) % 100))
            }
        }
        impl InteractionSchema for Striped {
            fn interaction_classes(&self) -> Vec<ClassSpec> {
                vec![ClassSpec::equal_rank()]
            }
            fn equal_rank_rule(&self, s: State) -> bool {
                s.is_multiple_of(3)
            }
        }
        let schema = CompiledSchema::compile(&Striped);
        for s in 0..100u32 {
            assert_eq!(schema.eq_rule(s as usize), s.is_multiple_of(3), "state {s}");
        }
    }

    /// A partner row entry, for the compile tests.
    fn partner(state: u32, out_pair: u32, in_pair: u32) -> Partner {
        Partner {
            state,
            out_pair,
            in_pair,
        }
    }

    #[test]
    fn compile_builds_contiguous_groups_and_partner_rows() {
        crate::protocol::validate_interaction_schema(&MultiGroup).unwrap();
        let schema = CompiledSchema::compile(&MultiGroup);
        // Stable sort by initiator: groups 0, 2, 3, 4 in order, with
        // declaration order preserved within each group.
        assert_eq!(
            schema.pairs,
            vec![(0, 2), (0, 4), (2, 2), (2, 1), (3, 0), (4, 0)]
        );
        assert_eq!(schema.group_off, vec![0, 2, 4, 5, 6]);
        assert_eq!(schema.num_groups(), 4);
        assert_eq!(schema.state_group, vec![0, ABSENT, 1, 2, 3]);
        for (pi, &(a, _)) in schema.pairs.iter().enumerate() {
            let (lo, hi) = schema.group_range(schema.state_group[a as usize] as usize);
            assert!(lo <= pi && pi < hi, "pair {pi} outside its group range");
        }
        // Partner rows: the own group in pair order, then the in-only
        // partners; (0,4) and (4,0) share one entry in each row. The
        // diagonal (2,2) is kept apart.
        const NO: u32 = ABSENT;
        assert_eq!(schema.partner_off, vec![0, 3, 4, 6, 7, 8]);
        assert_eq!(
            schema.partners,
            vec![
                partner(2, 0, NO),
                partner(4, 1, 5),
                partner(3, NO, 4),
                partner(2, NO, 3),
                partner(1, 3, NO),
                partner(0, NO, 0),
                partner(0, 4, NO),
                partner(0, 5, 1),
            ]
        );
        assert_eq!(schema.diag, vec![NO, NO, 2, NO, NO]);
        // Every entry names its pairs correctly, and every off-diagonal
        // pair is reachable from both of its states.
        for s in 0..5usize {
            for p in schema.partner_row(s) {
                let t = p.state;
                assert_ne!(t as usize, s);
                if p.out_pair != NO {
                    assert_eq!(schema.pairs[p.out_pair as usize], (s as u32, t));
                }
                if p.in_pair != NO {
                    assert_eq!(schema.pairs[p.in_pair as usize], (t, s as u32));
                }
            }
        }
        let directions: u64 = schema.partners.iter().map(|p| p.directions()).sum();
        // 5 off-diagonal pairs, each seen from both of its states.
        assert_eq!(directions, 10);
    }

    /// Sparse test protocol whose declaration is a fixed pair list, for
    /// the compile tests. Its transition is never consulted.
    struct Declared(Vec<(State, State)>);
    impl Protocol for Declared {
        fn name(&self) -> &str {
            "declared"
        }
        fn population_size(&self) -> usize {
            4
        }
        fn num_states(&self) -> usize {
            4
        }
        fn num_rank_states(&self) -> usize {
            4
        }
        fn transition(&self, i: State, r: State) -> Option<(State, State)> {
            self.0.contains(&(i, r)).then_some((r, i))
        }
    }
    impl InteractionSchema for Declared {
        fn interaction_classes(&self) -> Vec<ClassSpec> {
            self.0.iter().map(|&(a, b)| ClassSpec::pair(a, b)).collect()
        }
    }

    #[test]
    #[should_panic(expected = "sparse pair (1,3) declared twice")]
    fn compile_rejects_an_off_diagonal_pair_declared_twice() {
        // The repeat is not adjacent to its first declaration.
        let _ = CompiledSchema::compile(&Declared(vec![(1, 3), (2, 2), (3, 1), (1, 3)]));
    }

    #[test]
    #[should_panic(expected = "sparse pair (3,1) declared twice")]
    fn compile_rejects_an_in_pair_declared_twice() {
        // State 1 sees (3,1) twice among its in-pairs before state 3's
        // own group is scanned.
        let _ = CompiledSchema::compile(&Declared(vec![(3, 1), (0, 2), (3, 1)]));
    }

    #[test]
    fn compile_accepts_both_directions_as_one_partner() {
        let schema = CompiledSchema::compile(&Declared(vec![(3, 1), (1, 3)]));
        assert_eq!(schema.pairs, vec![(1, 3), (3, 1)]);
        assert_eq!(schema.partner_row(1), &[partner(3, 0, 1)]);
        assert_eq!(schema.partner_row(3), &[partner(1, 1, 0)]);
        assert!(schema.partner_row(0).is_empty() && schema.partner_row(2).is_empty());
        assert_eq!(schema.diag, vec![ABSENT; 4]);
    }
}
