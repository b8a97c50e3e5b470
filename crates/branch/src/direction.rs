//! The conditional-branch direction predictor.

use sst_isa::{SnapError, SnapReader, SnapState, SnapWriter};

/// Configures the direction predictor. Its `Debug` text names the
/// predictor in E1's shared-parameter table and in custom-config cache
/// keys.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PredictorKind {
    /// Global-history XOR PC indexed 2-bit counters.
    Gshare {
        /// log2 of the table size (also the history length).
        bits: u32,
    },
}

/// Gshare: global history XORed with the PC indexes a table of 2-bit
/// saturating counters. History is updated at [`Gshare::update`] (resolve
/// time), the standard arrangement for simple simulators.
#[derive(Clone, Debug)]
pub struct Gshare {
    table: Vec<u8>,
    history: u64,
    mask: u64,
}

impl Gshare {
    /// Creates a `2^bits` table of weakly-taken counters; history length
    /// equals `bits`.
    pub fn new(bits: u32) -> Gshare {
        Gshare {
            table: vec![2; 1 << bits],
            history: 0,
            mask: (1 << bits) - 1,
        }
    }

    #[inline]
    fn index(&self, pc: u64) -> usize {
        (((pc >> 2) ^ self.history) & self.mask) as usize
    }

    /// Predicts the direction of the branch at `pc`.
    #[inline]
    pub fn predict(&self, pc: u64) -> bool {
        self.table[self.index(pc)] >= 2
    }

    /// Trains with the resolved direction and shifts it into the history.
    #[inline]
    pub fn update(&mut self, pc: u64, taken: bool) {
        let i = self.index(pc);
        let counter = &mut self.table[i];
        *counter = if taken {
            (*counter + 1).min(3)
        } else {
            counter.saturating_sub(1)
        };
        self.history = ((self.history << 1) | taken as u64) & self.mask;
    }

    /// `true` when the counter for `pc` is saturated.
    #[inline]
    pub fn confident(&self, pc: u64) -> bool {
        matches!(self.table[self.index(pc)], 0 | 3)
    }
}

/// One length-prefixed byte string: the history as a little-endian `u64`,
/// then the counter table. A restore refuses a wrong length, a counter
/// above 3 (a state training never produces) or history bits outside the
/// mask.
impl SnapState for Gshare {
    fn put_state(&self, w: &mut SnapWriter) {
        w.put_u64(8 + self.table.len() as u64);
        w.put_u64(self.history);
        w.put_raw(&self.table);
    }

    fn take_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let data = r.take_bytes()?;
        if data.len() == 8 + self.table.len() && data[8..].iter().all(|&c| c <= 3) {
            let history = u64::from_le_bytes(data[..8].try_into().expect("eight bytes"));
            if history & !self.mask == 0 {
                self.history = history;
                self.table.copy_from_slice(&data[8..]);
                return Ok(());
            }
        }
        Err(SnapError::Mismatch(
            "direction-predictor state does not fit the configured predictor".into(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gshare_learns_alternating_pattern() {
        let mut p = Gshare::new(10);
        // T,N,T,N... is history-predictable; train then measure.
        let mut taken = true;
        for _ in 0..64 {
            p.update(0x200, taken);
            taken = !taken;
        }
        let mut correct = 0;
        for _ in 0..32 {
            if p.predict(0x200) == taken {
                correct += 1;
            }
            p.update(0x200, taken);
            taken = !taken;
        }
        assert!(correct >= 30, "gshare should nail alternation, {correct}/32");
    }

    #[test]
    fn state_is_history_then_table_and_refuses_what_training_never_makes() {
        let mut p = Gshare::new(2);
        p.update(0x10, true);
        p.update(0x20, false);
        let mut w = SnapWriter::new();
        p.put_state(&mut w);
        let bytes = w.into_bytes();
        let mut want = 12u64.to_le_bytes().to_vec();
        want.extend_from_slice(&p.history.to_le_bytes());
        want.extend_from_slice(&p.table);
        assert_eq!(bytes, want);

        let restore = |bytes: &[u8]| Gshare::new(2).take_state(&mut SnapReader::new(bytes));
        let mut q = Gshare::new(2);
        q.take_state(&mut SnapReader::new(&bytes)).unwrap();
        assert_eq!((q.history, &q.table), (p.history, &p.table));
        let mut counter = bytes.clone();
        counter[16] = 4;
        let mut history = bytes.clone();
        history[8] = 4;
        let mut short = bytes[..bytes.len() - 1].to_vec();
        short[0] = 11;
        for bad in [counter, history, short] {
            assert!(matches!(restore(&bad), Err(SnapError::Mismatch(_))), "{bad:?}");
        }
    }
}
