//! Bit-packed Boolean storage for observations and link-state traces.
//!
//! * [`BitLanes`] — *lane-major* (columnar): one packed `u64` lane per
//!   path, one bit per snapshot. This is the only layout of path
//!   observations: every estimator query (marginal, joint, all-good and
//!   exact-state) is a bitwise sweep over whole lane words, 64 snapshots
//!   per word. [`BitLanesView`] is its borrowed, zero-copy counterpart.
//! * [`BitMatrix`] — *row-major*: one packed row per snapshot, one bit per
//!   link. It backs simulation link-state traces, which are only ever
//!   read one snapshot at a time.
//!
//! Both structures maintain the invariant that every bit beyond the logical
//! extent (slots / width) is zero, so popcounts over stored words never
//! need masking; only queries over *complemented* words mask the tail.

use serde::{Deserialize, Serialize};

use crate::error::MeasureError;

#[path = "simd.rs"]
pub mod simd;

/// Number of bits per storage word.
pub const WORD_BITS: usize = u64::BITS as usize;

/// Number of words needed for `bits` bits (at least one, so that rows and
/// lanes are always addressable even in degenerate zero-width containers).
#[inline]
pub fn words_for(bits: usize) -> usize {
    bits.div_ceil(WORD_BITS).max(1)
}

/// Mask selecting the valid bits of the *last* word covering `bits` bits
/// (all ones when `bits` is a multiple of 64; all zeros when `bits == 0`).
#[inline]
pub fn tail_mask(bits: usize) -> u64 {
    match bits % WORD_BITS {
        0 if bits == 0 => 0,
        0 => !0,
        rem => (1u64 << rem) - 1,
    }
}

/// Columnar (lane-major) bit store: `num_lanes` independent bit-vectors
/// that all grow in lock-step, one slot at a time.
///
/// Lanes are kept contiguous in one allocation (`lane × capacity-words`),
/// so a pair query streams two compact word slices. Capacity grows by
/// doubling, which re-lays the words out; appends are amortised O(1) per
/// lane.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BitLanes {
    num_lanes: usize,
    num_slots: usize,
    /// Per-lane capacity, in words.
    words_per_lane: usize,
    /// Lane-major storage: lane `l` occupies
    /// `words[l * words_per_lane .. (l + 1) * words_per_lane]`.
    words: Vec<u64>,
}

impl BitLanes {
    /// Creates an empty store with `num_lanes` lanes.
    pub fn new(num_lanes: usize) -> Self {
        Self::with_capacity(num_lanes, 0)
    }

    /// Creates an empty store with room for `slots` slots pre-allocated.
    pub fn with_capacity(num_lanes: usize, slots: usize) -> Self {
        let words_per_lane = words_for(slots.max(1));
        BitLanes {
            num_lanes,
            num_slots: 0,
            words_per_lane,
            words: vec![0; num_lanes.max(1) * words_per_lane],
        }
    }

    /// Number of lanes.
    pub fn num_lanes(&self) -> usize {
        self.num_lanes
    }

    /// Number of slots recorded so far.
    pub fn num_slots(&self) -> usize {
        self.num_slots
    }

    /// Number of words of each lane that carry recorded slots.
    pub fn used_words(&self) -> usize {
        words_for(self.num_slots)
    }

    /// Mask of the valid bits in the last used word (for queries over
    /// complemented lanes).
    pub fn last_word_mask(&self) -> u64 {
        tail_mask(self.num_slots)
    }

    /// The used prefix of lane `lane` (tail bits of the last word are
    /// guaranteed zero).
    ///
    /// # Panics
    ///
    /// Panics if `lane >= num_lanes`.
    pub fn lane(&self, lane: usize) -> &[u64] {
        assert!(
            lane < self.num_lanes,
            "lane {lane} out of range ({} lanes)",
            self.num_lanes
        );
        let start = lane * self.words_per_lane;
        &self.words[start..start + self.used_words()]
    }

    /// Whether bit `slot` of lane `lane` is set.
    pub fn get(&self, lane: usize, slot: usize) -> bool {
        assert!(
            slot < self.num_slots,
            "slot {slot} out of range ({} recorded)",
            self.num_slots
        );
        let word = self.lane(lane)[slot / WORD_BITS];
        word >> (slot % WORD_BITS) & 1 == 1
    }

    /// Number of set bits in lane `lane`.
    pub fn count_ones(&self, lane: usize) -> usize {
        self.lane(lane)
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }

    /// Appends one slot across all lanes: `values[l]` becomes the new bit
    /// of lane `l`. `values.len()` must equal `num_lanes`.
    pub fn push_slot(&mut self, values: &[bool]) {
        assert_eq!(
            values.len(),
            self.num_lanes,
            "slot width {} does not match lane count {}",
            values.len(),
            self.num_lanes
        );
        if self.num_slots == self.words_per_lane * WORD_BITS {
            self.grow();
        }
        let word = self.num_slots / WORD_BITS;
        let bit = 1u64 << (self.num_slots % WORD_BITS);
        for (lane, &set) in values.iter().enumerate() {
            if set {
                self.words[lane * self.words_per_lane + word] |= bit;
            }
        }
        self.num_slots += 1;
    }

    /// Doubles the per-lane capacity, re-laying the lanes out.
    fn grow(&mut self) {
        self.grow_to((self.words_per_lane * 2).max(1));
    }

    /// Grows the per-lane capacity to at least `new_words_per_lane`,
    /// re-laying the lanes out (no-op if already large enough).
    fn grow_to(&mut self, new_words_per_lane: usize) {
        if new_words_per_lane <= self.words_per_lane {
            return;
        }
        let mut new_words = vec![0u64; self.num_lanes.max(1) * new_words_per_lane];
        for lane in 0..self.num_lanes {
            let src = lane * self.words_per_lane;
            let dst = lane * new_words_per_lane;
            new_words[dst..dst + self.words_per_lane]
                .copy_from_slice(&self.words[src..src + self.words_per_lane]);
        }
        self.words_per_lane = new_words_per_lane;
        self.words = new_words;
    }

    /// Builds a store directly from packed lane words: `num_lanes`
    /// consecutive groups of `words_for(num_slots)` words each (the
    /// binary wire format's layout). This is the zero-parse load path —
    /// the words are copied into the lane layout without touching
    /// individual bits.
    ///
    /// # Panics
    ///
    /// Panics if `words.len()` is not `num_lanes * words_for(num_slots)`
    /// or if any bit beyond `num_slots` is set (the zero-tail invariant).
    pub fn from_lane_words(num_lanes: usize, num_slots: usize, words: &[u64]) -> Self {
        match Self::try_from_lane_words(num_lanes, num_slots, words) {
            Ok(lanes) => lanes,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible form of [`BitLanes::from_lane_words`] for untrusted input
    /// (wire blocks, files): word-count and zero-tail violations surface
    /// as [`MeasureError::Wire`] instead of a panic.
    pub fn try_from_lane_words(
        num_lanes: usize,
        num_slots: usize,
        words: &[u64],
    ) -> Result<Self, MeasureError> {
        let used = words_for(num_slots);
        if words.len() != num_lanes * used {
            return Err(MeasureError::Wire(format!(
                "expected {num_lanes} lanes x {used} words, got {} words",
                words.len()
            )));
        }
        let mask = tail_mask(num_slots);
        let mut lanes = BitLanes::with_capacity(num_lanes, num_slots.max(1));
        for lane in 0..num_lanes {
            let src = &words[lane * used..(lane + 1) * used];
            if num_slots > 0 {
                if src[used - 1] & !mask != 0 {
                    return Err(MeasureError::Wire(format!(
                        "lane {lane} has bits set beyond slot {num_slots}"
                    )));
                }
                lanes.words[lane * lanes.words_per_lane..lane * lanes.words_per_lane + used]
                    .copy_from_slice(src);
            }
        }
        lanes.num_slots = num_slots;
        Ok(lanes)
    }

    /// A borrowed, read-only view of this store (the heap tier of the
    /// memory ladder viewed through the common query interface).
    pub fn as_view(&self) -> BitLanesView<'_> {
        BitLanesView {
            num_lanes: self.num_lanes,
            num_slots: self.num_slots,
            stride: self.words_per_lane,
            words: &self.words,
        }
    }

    /// Appends every slot of `other` after this store's slots, by
    /// word-level copy: a `memcpy` per lane when this store ends on a word
    /// boundary (the shard splitter aligns every boundary but the last),
    /// otherwise a word-shifted merge ([`splice_lane`]).
    ///
    /// # Panics
    ///
    /// Panics if the lane counts differ.
    pub fn concat(&mut self, other: &BitLanes) {
        assert_eq!(
            self.num_lanes, other.num_lanes,
            "cannot concatenate stores with different lane counts"
        );
        if other.num_slots == 0 {
            return;
        }
        let total = self.num_slots + other.num_slots;
        let used = words_for(total);
        self.grow_to(used);
        for lane in 0..self.num_lanes {
            let start = lane * self.words_per_lane;
            splice_lane(
                &mut self.words[start..start + used],
                self.num_slots,
                other.lane(lane),
            );
        }
        self.num_slots = total;
    }
}

/// Writes the packed bits of `src` into `dst` starting at bit `offset`:
/// the shard-merge and history-merge primitive. `dst` must hold the
/// merged lane exactly (`words_for(offset + slots of src)` words) and be
/// zero from bit `offset` on; `src` must satisfy the zero-tail
/// invariant. A word-aligned `offset` is a plain copy; otherwise every
/// source word is split across two destination words.
pub(crate) fn splice_lane(dst: &mut [u64], offset: usize, src: &[u64]) {
    let first = offset / WORD_BITS;
    let shift = offset % WORD_BITS;
    if shift == 0 {
        dst[first..first + src.len()].copy_from_slice(src);
        return;
    }
    for (i, &word) in src.iter().enumerate() {
        dst[first + i] |= word << shift;
        let carry = word >> (WORD_BITS - shift);
        match dst.get_mut(first + i + 1) {
            Some(next) => *next |= carry,
            None => debug_assert_eq!(carry, 0, "source bits beyond the merged extent"),
        }
    }
}

impl PartialEq for BitLanes {
    /// Logical equality: same lanes, same slots, same bits — capacity (and
    /// therefore allocation layout) is ignored.
    fn eq(&self, other: &Self) -> bool {
        self.num_lanes == other.num_lanes
            && self.num_slots == other.num_slots
            && (0..self.num_lanes).all(|l| self.lane(l) == other.lane(l))
    }
}

impl Eq for BitLanes {}

/// Borrowed, lifetime-parameterized view over packed lane words — the
/// zero-copy tier of the observation memory ladder.
///
/// A view never owns its words: it can borrow a heap-owned [`BitLanes`]
/// ([`BitLanes::as_view`]), a slice of a memory-mapped v3 file, or any
/// other little-endian lane-word buffer. Lane `l` starts at word
/// `l * stride`; the packed wire layout has `stride == words_for(slots)`
/// while a borrowed [`BitLanes`] keeps its capacity stride. All query
/// accessors mirror [`BitLanes`] bit for bit.
#[derive(Debug, Clone, Copy)]
pub struct BitLanesView<'a> {
    num_lanes: usize,
    num_slots: usize,
    /// Words between consecutive lane starts.
    stride: usize,
    words: &'a [u64],
}

impl<'a> BitLanesView<'a> {
    /// Builds a view over tightly packed lane words (the v3 wire layout:
    /// `num_lanes` consecutive groups of `words_for(num_slots)` words, or
    /// no words at all when `num_slots == 0`). No word is copied.
    ///
    /// Word-count and zero-tail violations surface as
    /// [`MeasureError::Wire`].
    pub fn try_from_lane_words(
        num_lanes: usize,
        num_slots: usize,
        words: &'a [u64],
    ) -> Result<Self, MeasureError> {
        let used = if num_slots == 0 {
            0
        } else {
            words_for(num_slots)
        };
        if words.len() != num_lanes * used {
            return Err(MeasureError::Wire(format!(
                "expected {num_lanes} lanes x {used} words, got {} words",
                words.len()
            )));
        }
        let mask = tail_mask(num_slots);
        if num_slots > 0 {
            for lane in 0..num_lanes {
                if words[(lane + 1) * used - 1] & !mask != 0 {
                    return Err(MeasureError::Wire(format!(
                        "lane {lane} has bits set beyond slot {num_slots}"
                    )));
                }
            }
        }
        Ok(BitLanesView {
            num_lanes,
            num_slots,
            stride: used,
            words,
        })
    }

    /// Number of lanes.
    pub fn num_lanes(&self) -> usize {
        self.num_lanes
    }

    /// Number of recorded slots.
    pub fn num_slots(&self) -> usize {
        self.num_slots
    }

    /// Number of words of each lane that carry recorded slots (zero for an
    /// empty view — a packed view holds no words at all then).
    pub fn used_words(&self) -> usize {
        if self.num_slots == 0 {
            0
        } else {
            words_for(self.num_slots)
        }
    }

    /// Mask of the valid bits in the last used word (for queries over
    /// complemented lanes).
    pub fn last_word_mask(&self) -> u64 {
        tail_mask(self.num_slots)
    }

    /// The used prefix of lane `lane` (tail bits of the last word are
    /// guaranteed zero by construction).
    ///
    /// # Panics
    ///
    /// Panics if `lane >= num_lanes`.
    pub fn lane(&self, lane: usize) -> &'a [u64] {
        assert!(
            lane < self.num_lanes,
            "lane {lane} out of range ({} lanes)",
            self.num_lanes
        );
        let start = lane * self.stride;
        &self.words[start..start + self.used_words()]
    }

    /// Whether bit `slot` of lane `lane` is set.
    pub fn get(&self, lane: usize, slot: usize) -> bool {
        assert!(
            slot < self.num_slots,
            "slot {slot} out of range ({} recorded)",
            self.num_slots
        );
        let word = self.lane(lane)[slot / WORD_BITS];
        word >> (slot % WORD_BITS) & 1 == 1
    }

    /// Number of set bits in lane `lane`.
    pub fn count_ones(&self, lane: usize) -> usize {
        self.lane(lane)
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }

    /// Word `word` of every lane, in lane order: the 64 slots
    /// `64·word ..` across all lanes, read with one strided pass.
    ///
    /// # Panics
    ///
    /// Panics if `word >= used_words`.
    pub(crate) fn word_column(&self, word: usize) -> impl Iterator<Item = u64> + 'a {
        assert!(
            word < self.used_words(),
            "word {word} out of range ({} used)",
            self.used_words()
        );
        self.words[word..]
            .iter()
            .step_by(self.stride)
            .take(self.num_lanes)
            .copied()
    }

    /// Copies the view into an owned [`BitLanes`] (promoting the zero-copy
    /// tier back to the heap tier).
    pub fn to_owned_lanes(&self) -> BitLanes {
        let mut lanes = BitLanes::with_capacity(self.num_lanes, self.num_slots.max(1));
        let used = self.used_words();
        for lane in 0..self.num_lanes {
            lanes.words[lane * lanes.words_per_lane..lane * lanes.words_per_lane + used]
                .copy_from_slice(self.lane(lane));
        }
        lanes.num_slots = self.num_slots;
        lanes
    }
}

/// Row-major packed bit matrix: an append-only sequence of fixed-width
/// rows, one word-aligned packed row per append (the simulator's
/// per-snapshot link states).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BitMatrix {
    width: usize,
    words_per_row: usize,
    num_rows: usize,
    /// Row-major storage: row `r` occupies
    /// `words[r * words_per_row .. (r + 1) * words_per_row]`.
    words: Vec<u64>,
}

impl BitMatrix {
    /// Creates an empty matrix whose rows are `width` bits wide.
    pub fn new(width: usize) -> Self {
        Self::with_capacity(width, 0)
    }

    /// Creates an empty matrix with room for `rows` rows pre-allocated.
    pub fn with_capacity(width: usize, rows: usize) -> Self {
        let words_per_row = words_for(width);
        BitMatrix {
            width,
            words_per_row,
            num_rows: 0,
            words: Vec::with_capacity(words_per_row * rows),
        }
    }

    /// Bits per row.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Words per packed row.
    pub fn words_per_row(&self) -> usize {
        self.words_per_row
    }

    /// Number of rows appended so far.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Returns `true` if no rows have been appended.
    pub fn is_empty(&self) -> bool {
        self.num_rows == 0
    }

    /// Appends one row. `row.len()` must equal the matrix width.
    pub fn push_row(&mut self, row: &[bool]) {
        assert_eq!(
            row.len(),
            self.width,
            "row width {} does not match matrix width {}",
            row.len(),
            self.width
        );
        let start = self.words.len();
        self.words.resize(start + self.words_per_row, 0);
        for (bit, &set) in row.iter().enumerate() {
            if set {
                self.words[start + bit / WORD_BITS] |= 1u64 << (bit % WORD_BITS);
            }
        }
        self.num_rows += 1;
    }

    /// The packed words of row `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row >= num_rows`.
    pub fn row_words(&self, row: usize) -> &[u64] {
        assert!(
            row < self.num_rows,
            "row {row} out of range ({} rows)",
            self.num_rows
        );
        &self.words[row * self.words_per_row..(row + 1) * self.words_per_row]
    }

    /// Row `row` unpacked into booleans.
    pub fn row_bools(&self, row: usize) -> Vec<bool> {
        let words = self.row_words(row);
        (0..self.width)
            .map(|bit| words[bit / WORD_BITS] >> (bit % WORD_BITS) & 1 == 1)
            .collect()
    }

    /// Whether bit `col` of row `row` is set.
    pub fn get(&self, row: usize, col: usize) -> bool {
        assert!(
            col < self.width,
            "column {col} out of range (width {})",
            self.width
        );
        self.row_words(row)[col / WORD_BITS] >> (col % WORD_BITS) & 1 == 1
    }

    /// Iterates over the packed rows as word slices.
    pub fn rows(&self) -> impl Iterator<Item = &[u64]> {
        self.words.chunks_exact(self.words_per_row)
    }

    /// The flat packed word buffer (`num_rows × words_per_row` words,
    /// row-major) — the shape the link-state trace is persisted in.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Builds a matrix directly from a packed word buffer
    /// (`num_rows × words_for(width)` words, row-major).
    ///
    /// # Panics
    ///
    /// Panics if the buffer length does not match or if any row has bits
    /// set beyond `width` (the zero-tail invariant).
    pub fn from_words(width: usize, num_rows: usize, words: Vec<u64>) -> Self {
        let words_per_row = words_for(width);
        assert_eq!(
            words.len(),
            num_rows * words_per_row,
            "expected {num_rows} rows x {words_per_row} words, got {} words",
            words.len()
        );
        let mask = tail_mask(width);
        for (row, chunk) in words.chunks_exact(words_per_row).enumerate() {
            assert_eq!(
                chunk[words_per_row - 1] & !mask,
                0,
                "row {row} has bits set beyond width {width}"
            );
        }
        BitMatrix {
            width,
            words_per_row,
            num_rows,
            words,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lanes_pack_and_report_bits() {
        let mut lanes = BitLanes::new(3);
        assert_eq!(lanes.num_lanes(), 3);
        assert_eq!(lanes.num_slots(), 0);
        lanes.push_slot(&[true, false, false]);
        lanes.push_slot(&[false, true, false]);
        lanes.push_slot(&[true, true, false]);
        assert_eq!(lanes.num_slots(), 3);
        assert!(lanes.get(0, 0) && !lanes.get(0, 1) && lanes.get(0, 2));
        assert_eq!(lanes.count_ones(0), 2);
        assert_eq!(lanes.count_ones(1), 2);
        assert_eq!(lanes.count_ones(2), 0);
        assert_eq!(lanes.lane(0), &[0b101]);
        assert_eq!(lanes.last_word_mask(), 0b111);
    }

    #[test]
    fn lanes_grow_past_word_boundaries() {
        let mut lanes = BitLanes::new(2);
        for slot in 0..200 {
            lanes.push_slot(&[slot % 3 == 0, slot % 2 == 0]);
        }
        assert_eq!(lanes.num_slots(), 200);
        assert_eq!(lanes.used_words(), 4);
        assert_eq!(lanes.count_ones(0), 67);
        assert_eq!(lanes.count_ones(1), 100);
        for slot in 0..200 {
            assert_eq!(lanes.get(0, slot), slot % 3 == 0);
            assert_eq!(lanes.get(1, slot), slot % 2 == 0);
        }
        // Tail bits of the last used word stay zero.
        assert_eq!(lanes.lane(0)[3] & !tail_mask(200), 0);
    }

    #[test]
    fn lanes_equality_is_logical_not_layout() {
        let mut a = BitLanes::new(2);
        let mut b = BitLanes::with_capacity(2, 1000);
        for slot in 0..70 {
            let row = [slot % 5 == 0, slot % 7 == 0];
            a.push_slot(&row);
            b.push_slot(&row);
        }
        assert_eq!(a, b);
        b.push_slot(&[false, false]);
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "slot width")]
    fn lanes_reject_wrong_width() {
        BitLanes::new(3).push_slot(&[true]);
    }

    #[test]
    fn matrix_packs_rows() {
        let mut m = BitMatrix::new(70);
        assert!(m.is_empty());
        let row: Vec<bool> = (0..70).map(|i| i % 9 == 0).collect();
        m.push_row(&row);
        m.push_row(&[false; 70]);
        assert_eq!(m.num_rows(), 2);
        assert_eq!(m.words_per_row(), 2);
        assert_eq!(m.row_bools(0), row);
        assert!(m.get(0, 0) && m.get(0, 63) && !m.get(0, 64));
        assert!(m.row_words(1).iter().all(|&w| w == 0));
        assert_eq!(m.rows().count(), 2);
    }

    #[test]
    fn zero_width_containers_are_well_formed() {
        let mut m = BitMatrix::new(0);
        m.push_row(&[]);
        m.push_row(&[]);
        assert_eq!(m.num_rows(), 2);
        assert_eq!(m.row_bools(1), Vec::<bool>::new());
        let mut lanes = BitLanes::new(0);
        lanes.push_slot(&[]);
        assert_eq!(lanes.num_slots(), 1);
    }

    #[test]
    fn lanes_concat_is_bit_exact_at_word_boundaries() {
        // 128 slots (word-aligned) + 37 more, merged vs recorded in one go.
        let bit = |slot: usize, lane: usize| (slot * 7 + lane * 3).is_multiple_of(5);
        let mut left = BitLanes::new(3);
        let mut right = BitLanes::new(3);
        let mut whole = BitLanes::new(3);
        for slot in 0..165 {
            let row = [bit(slot, 0), bit(slot, 1), bit(slot, 2)];
            whole.push_slot(&row);
            if slot < 128 {
                left.push_slot(&row);
            } else {
                right.push_slot(&row);
            }
        }
        left.concat(&right);
        assert_eq!(left, whole);
        // Concatenating an empty store is a no-op.
        left.concat(&BitLanes::new(3));
        assert_eq!(left, whole);
        // An empty (0-slot) left store is trivially aligned.
        let mut empty = BitLanes::new(3);
        empty.concat(&whole);
        assert_eq!(empty, whole);
    }

    #[test]
    fn lanes_concat_shifts_unaligned_prefixes() {
        // Every left length across two word boundaries, including ones
        // where the merged tail fits in the left store's last word.
        let bit = |slot: usize, lane: usize| (slot * 5 + lane * 11).is_multiple_of(3);
        for split in 0..=140 {
            let mut left = BitLanes::new(2);
            let mut right = BitLanes::new(2);
            let mut whole = BitLanes::new(2);
            for slot in 0..150 {
                let row = [bit(slot, 0), bit(slot, 1)];
                whole.push_slot(&row);
                if slot < split {
                    left.push_slot(&row);
                } else {
                    right.push_slot(&row);
                }
            }
            left.concat(&right);
            assert_eq!(left, whole, "split at {split}");
            // The merged store keeps growing correctly afterwards.
            left.push_slot(&[true, false]);
            assert!(left.get(0, 150) && !left.get(1, 150));
        }
    }

    #[test]
    fn lanes_round_trip_through_raw_words() {
        let mut lanes = BitLanes::new(2);
        for slot in 0..100 {
            lanes.push_slot(&[slot % 3 == 0, slot % 7 == 0]);
        }
        let mut words = Vec::new();
        for lane in 0..2 {
            words.extend_from_slice(lanes.lane(lane));
        }
        let rebuilt = BitLanes::from_lane_words(2, 100, &words);
        assert_eq!(rebuilt, lanes);
        // Degenerate empty store.
        let empty = BitLanes::from_lane_words(4, 0, &[0, 0, 0, 0]);
        assert_eq!(empty.num_slots(), 0);
        assert_eq!(empty.num_lanes(), 4);
    }

    #[test]
    #[should_panic(expected = "beyond slot")]
    fn lane_words_with_tail_bits_are_rejected() {
        BitLanes::from_lane_words(1, 3, &[0b1111]);
    }

    #[test]
    fn matrix_raw_words_round_trip() {
        let mut m = BitMatrix::new(70);
        for r in 0..9 {
            let row: Vec<bool> = (0..70).map(|c| (r * c) % 4 == 1).collect();
            m.push_row(&row);
        }
        let rebuilt = BitMatrix::from_words(70, 9, m.words().to_vec());
        assert_eq!(rebuilt, m);
    }

    #[test]
    #[should_panic(expected = "beyond width")]
    fn matrix_words_with_tail_bits_are_rejected() {
        BitMatrix::from_words(3, 1, vec![0b11111]);
    }

    #[test]
    fn word_helpers() {
        assert_eq!(words_for(0), 1);
        assert_eq!(words_for(1), 1);
        assert_eq!(words_for(64), 1);
        assert_eq!(words_for(65), 2);
        assert_eq!(tail_mask(0), 0);
        assert_eq!(tail_mask(1), 1);
        assert_eq!(tail_mask(64), !0);
        assert_eq!(tail_mask(65), 1);
    }
}
