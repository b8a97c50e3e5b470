//! Return-address stack.

use sst_isa::SnapError;

/// A fixed-depth return-address stack.
///
/// Calls push their return address; returns pop the predicted target.
/// Overflow wraps (oldest entry is overwritten), underflow predicts
/// nothing — both behaviours match real hardware RASes.
#[derive(Clone, Debug)]
pub struct ReturnAddressStack {
    stack: Vec<u64>,
    top: usize,
    len: usize,
}

impl ReturnAddressStack {
    /// Creates a RAS with `depth` entries.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    pub fn new(depth: usize) -> ReturnAddressStack {
        assert!(depth > 0, "RAS needs at least one entry");
        ReturnAddressStack {
            stack: vec![0; depth],
            top: 0,
            len: 0,
        }
    }

    /// Current number of live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the stack holds no predictions.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Pushes a return address (on a call).
    #[inline]
    pub fn push(&mut self, ret_addr: u64) {
        self.top = (self.top + 1) % self.stack.len();
        self.stack[self.top] = ret_addr;
        self.len = (self.len + 1).min(self.stack.len());
    }

    /// Pops the predicted return target (on a return); `None` if empty.
    #[inline]
    pub fn pop(&mut self) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        let v = self.stack[self.top];
        self.top = (self.top + self.stack.len() - 1) % self.stack.len();
        self.len -= 1;
        Some(v)
    }

    /// Number of entries the stack holds when full.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// The snapshot's top and live count fit its ring (the ring's depth is
    /// checked against the configuration by the owner).
    fn restored(&mut self) -> Result<(), SnapError> {
        if self.top >= self.stack.len() || self.len > self.stack.len() {
            return Err(SnapError::Corrupt(format!(
                "RAS state (top {}, len {}) inconsistent with depth {}",
                self.top,
                self.len,
                self.stack.len()
            )));
        }
        Ok(())
    }
}

sst_isa::snap_record!(
    state ReturnAddressStack { stack, top, len } then ReturnAddressStack::restored
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifo_order() {
        let mut r = ReturnAddressStack::new(8);
        r.push(0x100);
        r.push(0x200);
        assert_eq!(r.pop(), Some(0x200));
        assert_eq!(r.pop(), Some(0x100));
        assert_eq!(r.pop(), None);
    }

    #[test]
    fn overflow_drops_oldest() {
        let mut r = ReturnAddressStack::new(2);
        r.push(1);
        r.push(2);
        r.push(3); // overwrites 1
        assert_eq!(r.len(), 2);
        assert_eq!(r.pop(), Some(3));
        assert_eq!(r.pop(), Some(2));
        assert_eq!(r.pop(), None);
    }

    #[test]
    fn empty_reports() {
        let mut r = ReturnAddressStack::new(4);
        assert!(r.is_empty());
        r.push(9);
        assert!(!r.is_empty());
        r.pop();
        assert!(r.is_empty());
    }
}
