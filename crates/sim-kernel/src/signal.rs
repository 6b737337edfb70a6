//! Typed signals and their storage.

use crate::logic::{Bits, Logic, LogicVec};
use std::any::Any;
use std::fmt;
use std::marker::PhantomData;

/// Values that can live on a [`Signal`].
///
/// A signal value must be cloneable, comparable (so the kernel can detect
/// real changes and suppress delta-cycle churn) and convertible to a
/// [`Bits`] snapshot for tracing.
pub trait SignalValue: Clone + PartialEq + fmt::Debug + 'static {
    /// The trace width in bits.
    fn width(&self) -> usize;
    /// A two-state snapshot for trace sinks. `X`/`Z` map to `0`.
    fn to_bits(&self) -> Bits;
}

impl SignalValue for bool {
    fn width(&self) -> usize {
        1
    }
    fn to_bits(&self) -> Bits {
        Bits::from_bool(*self)
    }
}

macro_rules! impl_signal_value_uint {
    ($($t:ty => $w:expr),* $(,)?) => {
        $(impl SignalValue for $t {
            fn width(&self) -> usize { $w }
            fn to_bits(&self) -> Bits { Bits::from_u64(*self as u64, $w) }
        })*
    };
}

impl_signal_value_uint!(u8 => 8, u16 => 16, u32 => 32, u64 => 64);

impl SignalValue for Logic {
    fn width(&self) -> usize {
        1
    }
    fn to_bits(&self) -> Bits {
        Bits::from_bool(self.to_bool().unwrap_or(false))
    }
}

impl SignalValue for LogicVec {
    fn width(&self) -> usize {
        LogicVec::width(self)
    }
    fn to_bits(&self) -> Bits {
        let mut words = vec![0u64; LogicVec::width(self).div_ceil(64).max(1)];
        for (i, b) in self.iter().enumerate() {
            if b.to_bool().unwrap_or(false) {
                words[i / 64] |= 1 << (i % 64);
            }
        }
        Bits::new(LogicVec::width(self), words)
    }
}

/// An untyped signal identifier, unique within one [`Simulator`].
///
/// [`Simulator`]: crate::Simulator
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct SignalId(pub(crate) u32);

impl SignalId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A typed handle to a signal of value type `T`.
///
/// Handles are `Copy` and can be captured by process closures.
pub struct Signal<T> {
    pub(crate) id: SignalId,
    pub(crate) _marker: PhantomData<fn() -> T>,
}

impl<T> Signal<T> {
    pub(crate) fn new(id: SignalId) -> Self {
        Signal {
            id,
            _marker: PhantomData,
        }
    }

    /// The untyped identifier of this signal.
    pub fn id(self) -> SignalId {
        self.id
    }
}

impl<T> Clone for Signal<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for Signal<T> {}

impl<T> fmt::Debug for Signal<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Signal#{}", self.id.0)
    }
}

impl<T> PartialEq for Signal<T> {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
    }
}
impl<T> Eq for Signal<T> {}

/// Type-erased per-signal storage used inside the scheduler.
pub(crate) trait AnyStore: Any {
    /// Applies the pending value; returns true if the value changed.
    fn commit(&mut self) -> bool;
    /// Snapshot of the current value for tracing.
    fn bits(&self) -> Bits;
    /// For edge detection on `bool` signals: (previous, current).
    fn bool_edge(&self) -> Option<(bool, bool)>;
    fn as_any(&self) -> &dyn Any;
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

pub(crate) struct TypedStore<T: SignalValue> {
    pub current: T,
    pub previous: T,
    pub pending: Option<T>,
}

impl<T: SignalValue> TypedStore<T> {
    pub fn new(init: T) -> Self {
        TypedStore {
            previous: init.clone(),
            current: init,
            pending: None,
        }
    }

    /// Stages a write of `value` for the next commit and reports whether
    /// the signal must go on the commit list.
    ///
    /// Writing the committed value is a no-op: it clears any value staged
    /// earlier in the same delta (the last write wins) and returns false.
    /// Commit would have found no change for it anyway, so nothing it
    /// triggers, traces or counts can differ.
    pub fn stage(&mut self, value: T) -> bool {
        if value == self.current {
            self.pending = None;
            false
        } else {
            self.pending = Some(value);
            true
        }
    }
}

impl<T: SignalValue> AnyStore for TypedStore<T> {
    fn commit(&mut self) -> bool {
        match self.pending.take() {
            Some(v) if v != self.current => {
                self.previous = std::mem::replace(&mut self.current, v);
                true
            }
            Some(_) => false,
            None => false,
        }
    }

    fn bits(&self) -> Bits {
        self.current.to_bits()
    }

    fn bool_edge(&self) -> Option<(bool, bool)> {
        let prev = (&self.previous as &dyn Any).downcast_ref::<bool>()?;
        let cur = (&self.current as &dyn Any).downcast_ref::<bool>()?;
        Some((*prev, *cur))
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

pub(crate) struct SignalSlot {
    pub name: String,
    pub width: usize,
    pub store: Box<dyn AnyStore>,
    /// Processes sensitive to any change of this signal.
    pub sensitive: Vec<crate::process::ProcessId>,
    /// Processes sensitive to a rising edge (bool signals only).
    pub sensitive_rising: Vec<crate::process::ProcessId>,
    /// Processes sensitive to a falling edge (bool signals only).
    pub sensitive_falling: Vec<crate::process::ProcessId>,
    pub traced: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typed_store_commit_detects_change() {
        let mut s = TypedStore::new(false);
        s.pending = Some(true);
        assert!(s.commit());
        assert!(s.current);
        assert!(!s.previous);
        // Committing the same value is not a change.
        s.pending = Some(true);
        assert!(!s.commit());
    }

    #[test]
    fn typed_store_bool_edge() {
        let mut s = TypedStore::new(false);
        s.pending = Some(true);
        s.commit();
        assert_eq!(s.bool_edge(), Some((false, true)));
        let t = TypedStore::new(7u32);
        assert_eq!(t.bool_edge(), None);
    }

    #[test]
    fn signal_value_widths() {
        assert_eq!(true.width(), 1);
        assert_eq!(0u8.width(), 8);
        assert_eq!(0u16.width(), 16);
        assert_eq!(0u32.width(), 32);
        assert_eq!(0u64.width(), 64);
        assert_eq!(Logic::X.width(), 1);
    }

    #[test]
    fn logicvec_to_bits_maps_x_to_zero() {
        let mut v = LogicVec::from_u64(0b111, 3);
        v.set_bit(1, Logic::X);
        let b = SignalValue::to_bits(&v);
        assert!(b.bit(0));
        assert!(!b.bit(1));
        assert!(b.bit(2));
    }

    #[test]
    fn signal_handle_is_copy_and_eq() {
        let a: Signal<bool> = Signal::new(SignalId(3));
        let b = a;
        assert_eq!(a, b);
        assert_eq!(a.id().index(), 3);
        assert_eq!(format!("{a:?}"), "Signal#3");
    }
}
