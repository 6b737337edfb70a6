//! Typed signals and their word storage.

use crate::logic::Logic;
use std::fmt;
use std::marker::PhantomData;

/// Values that can live on a signal of either kernel.
///
/// Both the event-driven [`Simulator`](crate::Simulator) and the
/// [`CompiledSim`](crate::CompiledSim) store every signal as one `u64`
/// word; a value type says how it packs into that word and how wide it
/// traces. `from_word(v.to_word())` must round-trip every representable
/// value, and two values are equal exactly when their words are, so the
/// kernels can detect real changes by comparing words.
///
/// A trace sink sees `Bits::from_u64(word, WIDTH)`: the word masked to
/// the trace width.
pub trait WordValue: Copy + PartialEq + fmt::Debug + 'static {
    /// The trace width in bits.
    const WIDTH: usize;
    /// Packs the value into a `u64` word.
    fn to_word(self) -> u64;
    /// Unpacks a value previously produced by [`WordValue::to_word`].
    fn from_word(word: u64) -> Self;
}

impl WordValue for bool {
    const WIDTH: usize = 1;
    fn to_word(self) -> u64 {
        self as u64
    }
    fn from_word(word: u64) -> Self {
        word != 0
    }
}

macro_rules! impl_word_value_uint {
    ($($t:ty => $w:expr),* $(,)?) => {
        $(impl WordValue for $t {
            const WIDTH: usize = $w;
            fn to_word(self) -> u64 { self as u64 }
            fn from_word(word: u64) -> Self { word as $t }
        })*
    };
}

impl_word_value_uint!(u8 => 8, u16 => 16, u32 => 32, u64 => 64);

/// `L0` and `L1` are the words 0 and 1; `X` and `Z` take the even words
/// 2 and 4, so a one-bit trace of either reads as 0.
impl WordValue for Logic {
    const WIDTH: usize = 1;
    fn to_word(self) -> u64 {
        match self {
            Logic::L0 => 0,
            Logic::L1 => 1,
            Logic::X => 2,
            Logic::Z => 4,
        }
    }
    fn from_word(word: u64) -> Self {
        match word {
            0 => Logic::L0,
            1 => Logic::L1,
            2 => Logic::X,
            _ => Logic::Z,
        }
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

/// One event-kernel signal: its committed word, the word staged for the
/// next commit, and what a commit of it wakes and traces.
pub(crate) struct SignalSlot {
    pub name: String,
    pub width: usize,
    /// Whether the value type is `bool`, the only type with edges.
    pub is_bool: bool,
    /// The committed value.
    pub cur: u64,
    /// The staged value; meaningful only while `has_pend` is set.
    pub pend: u64,
    /// Whether the signal is on the simulator's write list.
    pub has_pend: bool,
    /// Processes sensitive to any change of this signal.
    pub sensitive: Vec<crate::process::ProcessId>,
    /// Processes sensitive to a rising edge (bool signals only).
    pub sensitive_rising: Vec<crate::process::ProcessId>,
    /// Processes sensitive to a falling edge (bool signals only).
    pub sensitive_falling: Vec<crate::process::ProcessId>,
    pub traced: bool,
    /// The value type, checked on every access in debug builds.
    #[cfg(debug_assertions)]
    ty: std::any::TypeId,
}

impl SignalSlot {
    pub fn new<T: WordValue>(name: &str, init: T) -> Self {
        SignalSlot {
            name: name.to_owned(),
            width: T::WIDTH,
            is_bool: std::any::TypeId::of::<T>() == std::any::TypeId::of::<bool>(),
            cur: init.to_word(),
            pend: 0,
            has_pend: false,
            sensitive: Vec::new(),
            sensitive_rising: Vec::new(),
            sensitive_falling: Vec::new(),
            traced: false,
            #[cfg(debug_assertions)]
            ty: std::any::TypeId::of::<T>(),
        }
    }

    /// Reads the committed value as `T`.
    ///
    /// # Panics
    ///
    /// In debug builds, if the signal was registered with another type.
    #[inline]
    pub fn get<T: WordValue>(&self) -> T {
        self.check_type::<T>();
        T::from_word(self.cur)
    }

    /// Stages `word` for the next commit and reports whether the signal
    /// must go on the write list.
    ///
    /// Writing the committed value onto an unstaged signal is a no-op:
    /// commit would find no change, so nothing it triggers, traces or
    /// counts can differ. Once staged, the last write of the delta wins
    /// and commit decides whether it changed anything.
    #[inline]
    pub fn stage(&mut self, word: u64) -> bool {
        if !self.has_pend && word == self.cur {
            return false;
        }
        self.force(word)
    }

    /// Stages `word` unconditionally, as a timed write does, and reports
    /// whether the signal must go on the write list.
    #[inline]
    pub fn force(&mut self, word: u64) -> bool {
        self.pend = word;
        !std::mem::replace(&mut self.has_pend, true)
    }

    /// Applies the staged word; returns true if the value changed.
    #[inline]
    pub fn commit(&mut self) -> bool {
        self.has_pend = false;
        if self.pend == self.cur {
            return false;
        }
        self.cur = self.pend;
        true
    }

    /// In debug builds, panics unless the signal was registered as `T`.
    #[inline]
    pub fn check_type<T: 'static>(&self) {
        #[cfg(debug_assertions)]
        assert!(
            self.ty == std::any::TypeId::of::<T>(),
            "signal `{}` accessed with the wrong type",
            self.name
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_value_widths() {
        assert_eq!(bool::WIDTH, 1);
        assert_eq!(u8::WIDTH, 8);
        assert_eq!(u16::WIDTH, 16);
        assert_eq!(u32::WIDTH, 32);
        assert_eq!(u64::WIDTH, 64);
        assert_eq!(Logic::WIDTH, 1);
    }

    #[test]
    fn logic_round_trips_through_its_word() {
        for v in [Logic::L0, Logic::L1, Logic::X, Logic::Z] {
            assert_eq!(Logic::from_word(v.to_word()), v);
        }
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
