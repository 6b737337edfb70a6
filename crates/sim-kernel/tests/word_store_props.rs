//! Property: the event kernel's word store behaves like a per-signal
//! reference model.
//!
//! A netlist of one signal per value type (`bool`, `u8`, `u16`, `u32`,
//! `u64`, `Logic`) plus a free-running clock takes random sequences of
//! external drives, timed writes issued from a process, settles and time
//! steps. After every step each signal must read the value the model
//! predicts; `signal_commits` must count exactly the commits that changed
//! a value, and the trace must hold exactly those changes, masked to the
//! signal's width.

use proptest::prelude::*;
use sim_kernel::{Bits, Logic, Signal, SimTime, Simulator, VecTrace, WordValue};
use std::cell::RefCell;
use std::rc::Rc;

/// One signal of the netlist, with its value type.
#[derive(Clone, Copy)]
enum Sig {
    Bool(Signal<bool>),
    U8(Signal<u8>),
    U16(Signal<u16>),
    U32(Signal<u32>),
    U64(Signal<u64>),
    Logic(Signal<Logic>),
}

/// Runs `$body` with `$s` bound to the typed handle and `$t` to its type.
macro_rules! typed {
    ($sig:expr, $s:ident, $t:ident => $body:expr) => {
        match $sig {
            Sig::Bool($s) => {
                type $t = bool;
                $body
            }
            Sig::U8($s) => {
                type $t = u8;
                $body
            }
            Sig::U16($s) => {
                type $t = u16;
                $body
            }
            Sig::U32($s) => {
                type $t = u32;
                $body
            }
            Sig::U64($s) => {
                type $t = u64;
                $body
            }
            Sig::Logic($s) => {
                type $t = Logic;
                $body
            }
        }
    };
}

impl Sig {
    /// The canonical word of the value `raw` stands for.
    fn word(self, raw: u64) -> u64 {
        typed!(self, _s, T => T::from_word(raw).to_word())
    }

    fn drive(self, sim: &mut Simulator, raw: u64) {
        typed!(self, s, T => sim.drive(s, T::from_word(raw)))
    }

    fn set_after(self, ctx: &mut sim_kernel::ProcCtx<'_>, raw: u64, delay: u64) {
        typed!(self, s, T => ctx.set_after(s, T::from_word(raw), delay))
    }

    /// What a trace of the value with this word shows: the word masked to
    /// the type's width, and `Logic` two-state with `X` and `Z` as 0.
    fn traced(self, word: u64) -> u64 {
        match self {
            Sig::Logic(_) => u64::from(Logic::from_word(word) == Logic::L1),
            _ => {
                typed!(self, _s, T => if T::WIDTH == 64 { word } else { word & ((1 << T::WIDTH) - 1) })
            }
        }
    }

    fn value_word(self, sim: &Simulator) -> u64 {
        typed!(self, s, T => sim.value::<T>(s).to_word())
    }
}

#[derive(Clone, Copy, Debug)]
enum Op {
    /// Drive signal `sig` from outside any process.
    Drive {
        sig: usize,
        raw: u64,
    },
    /// Queue a timed write and wake the process that issues it.
    Later {
        sig: usize,
        raw: u64,
        delay: u64,
    },
    Settle,
    Run(u64),
}

fn op() -> impl Strategy<Value = Op> {
    let raw = prop_oneof![0u64..5, any::<u64>()];
    (0u8..4, 0usize..6, raw, 1u64..8, 0u64..10).prop_map(
        |(kind, sig, raw, delay, ticks)| match kind {
            0 => Op::Drive { sig, raw },
            1 => Op::Later { sig, raw, delay },
            2 => Op::Settle,
            _ => Op::Run(ticks),
        },
    )
}

const HALF_PERIOD: u64 = 3;

enum Event {
    Toggle,
    Write(usize, u64),
}

/// The reference model: one committed word per signal, staged words in
/// staging order, and the timed-event queue.
struct Model {
    cur: Vec<u64>,
    widths: Vec<usize>,
    /// The typed signals, for what their trace shows.
    sigs: [Sig; 6],
    staged: Vec<Option<u64>>,
    order: Vec<usize>,
    /// `(time, sequence, event)`; due events apply in sequence order.
    events: Vec<(u64, u64, Event)>,
    seq: u64,
    now: u64,
    /// Timed writes queued for the next wake-up of the issuing process.
    batch: Vec<(usize, u64, u64)>,
    commits: u64,
    /// `(time, signal, word)` of every committed change.
    records: Vec<(u64, usize, u64)>,
    kick: usize,
    clk: usize,
}

impl Model {
    /// Stages `word` with the kernel's no-op suppression.
    fn drive(&mut self, i: usize, word: u64) {
        if self.staged[i].is_some() {
            self.staged[i] = Some(word);
        } else if word != self.cur[i] {
            self.force(i, word);
        }
    }

    /// Stages `word` unconditionally, as a timed write does.
    fn force(&mut self, i: usize, word: u64) {
        if self.staged[i].replace(word).is_none() {
            self.order.push(i);
        }
    }

    fn settle(&mut self) {
        for i in std::mem::take(&mut self.order) {
            let word = self.staged[i].take().expect("staged");
            if word == self.cur[i] {
                continue;
            }
            self.cur[i] = word;
            self.commits += 1;
            self.records.push((self.now, i, word));
            if i == self.kick {
                // The issuing process wakes in the next delta and schedules
                // the queued writes relative to this instant.
                for (sig, word, delay) in std::mem::take(&mut self.batch) {
                    self.events
                        .push((self.now + delay, self.seq, Event::Write(sig, word)));
                    self.seq += 1;
                }
            }
        }
    }

    fn run(&mut self, ticks: u64) {
        self.settle();
        let target = self.now + ticks;
        while let Some(next) = self
            .events
            .iter()
            .map(|e| e.0)
            .filter(|&t| t <= target)
            .min()
        {
            self.now = next;
            let (mut due, rest): (Vec<_>, Vec<_>) = std::mem::take(&mut self.events)
                .into_iter()
                .partition(|e| e.0 == next);
            self.events = rest;
            due.sort_by_key(|e| e.1);
            for (_, _, event) in due {
                match event {
                    Event::Toggle => {
                        self.force(self.clk, self.cur[self.clk] ^ 1);
                        self.events
                            .push((self.now + HALF_PERIOD, self.seq, Event::Toggle));
                        self.seq += 1;
                    }
                    Event::Write(sig, word) => self.force(sig, word),
                }
            }
            self.settle();
        }
        self.now = target;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn word_store_matches_the_reference_model(ops in collection::vec(op(), 1..60)) {
        let mut sim = Simulator::new();
        let sigs = [
            Sig::Bool(sim.add_signal("b", false)),
            Sig::U8(sim.add_signal("u8", 3u8)),
            Sig::U16(sim.add_signal("u16", 0u16)),
            Sig::U32(sim.add_signal("u32", 1u32)),
            Sig::U64(sim.add_signal("u64", u64::MAX)),
            Sig::Logic(sim.add_signal("l", Logic::X)),
        ];
        let kick = sim.add_signal("kick", false);
        let clk = sim.add_signal("clk", false);
        let queue: Rc<RefCell<Vec<(usize, u64, u64)>>> = Rc::default();
        let issued = Rc::clone(&queue);
        sim.add_comb_process("issuer", &[kick.id()], move |ctx| {
            for (sig, raw, delay) in issued.borrow_mut().drain(..) {
                sigs[sig].set_after(ctx, raw, delay);
            }
        });
        sim.add_clock(clk, HALF_PERIOD).unwrap();
        sim.set_trace(VecTrace::default());
        sim.trace_all();
        sim.settle().unwrap();

        let n = sim.signal_count();
        let mut model = Model {
            cur: sigs.iter().map(|s| s.value_word(&sim)).chain([0, 0]).collect(),
            widths: sim.signal_ids().map(|id| sim.signal_width(id)).collect(),
            sigs,
            staged: vec![None; n],
            order: Vec::new(),
            events: vec![(HALF_PERIOD, 0, Event::Toggle)],
            seq: 1,
            now: 0,
            batch: Vec::new(),
            commits: sim.kernel_stats().signal_commits,
            records: Vec::new(),
            kick: kick.id().index(),
            clk: clk.id().index(),
        };
        prop_assert_eq!(model.cur[4], u64::MAX);

        for op in ops {
            match op {
                Op::Drive { sig, raw } => {
                    sigs[sig].drive(&mut sim, raw);
                    model.drive(sig, sigs[sig].word(raw));
                }
                Op::Later { sig, raw, delay } => {
                    queue.borrow_mut().push((sig, raw, delay));
                    model.batch.push((sig, sigs[sig].word(raw), delay));
                    let toggled = !sim.value(kick);
                    sim.drive(kick, toggled);
                    model.drive(model.kick, u64::from(toggled));
                }
                Op::Settle => {
                    sim.settle().unwrap();
                    model.settle();
                }
                Op::Run(ticks) => {
                    sim.run_for(ticks).unwrap();
                    model.run(ticks);
                }
            }
            for (i, s) in sigs.iter().enumerate() {
                prop_assert_eq!(s.value_word(&sim), model.cur[i], "signal {} after {:?}", i, op);
            }
            prop_assert_eq!(u64::from(sim.value(clk)), model.cur[model.clk]);
            prop_assert_eq!(sim.now(), SimTime::from_ticks(model.now));
            prop_assert_eq!(sim.kernel_stats().signal_commits, model.commits, "after {:?}", op);
        }

        let trace: &VecTrace = sim.trace().unwrap();
        let mut got: Vec<(u64, usize, Bits)> = trace
            .records
            .iter()
            .map(|r| (r.time.ticks(), r.signal.index(), r.value.clone()))
            .collect();
        let mut want: Vec<(u64, usize, Bits)> = model
            .records
            .iter()
            .map(|&(t, i, w)| {
                let shown = model.sigs.get(i).map_or(w, |s| s.traced(w));
                (t, i, Bits::from_u64(shown, model.widths[i]))
            })
            .collect();
        let key = |r: &(u64, usize, Bits)| (r.0, r.1, r.2.low_u64());
        got.sort_by_key(key);
        want.sort_by_key(key);
        prop_assert_eq!(got, want);
    }
}
