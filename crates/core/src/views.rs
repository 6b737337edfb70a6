//! DUT-view factory: the Rust equivalent of the paper's wrapper files.
//! [`ViewSpec::build`] is the one place a view description becomes a
//! [`DutView`]; every campaign mode and [`build_view`] go through it.

use sim_kernel::SimBackend;
use stbus_bca::{BcaBug, BcaNode, Fidelity};
use stbus_protocol::{DutView, NodeConfig, ViewKind};
use stbus_rtl::{RtlBug, RtlNode};
use stbus_tlm::{TlmBug, TlmNode};

/// One design view of a configuration, as `Send` data: the model, its
/// backend or fidelity, and the catalogue defects injected into it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ViewSpec {
    /// The RTL view on a simulation backend.
    Rtl(SimBackend, Vec<RtlBug>),
    /// The bus-cycle-accurate view at a fidelity.
    Bca(Fidelity, Vec<BcaBug>),
    /// The untimed transaction-level view.
    Tlm(Vec<TlmBug>),
}

/// An elaborated view. The RTL node stays concrete so a cell can read its
/// structural coverage after the run.
pub(crate) enum Elaborated {
    Rtl(Box<RtlNode>),
    Other(Box<dyn DutView>),
}

impl ViewSpec {
    /// The clean view of `kind` that [`build_view`] elaborates: RTL on the
    /// event kernel, BCA at its realistic [`Fidelity::Relaxed`].
    pub fn of(kind: ViewKind) -> ViewSpec {
        match kind {
            ViewKind::Rtl => ViewSpec::Rtl(SimBackend::Event, Vec::new()),
            ViewKind::Bca => ViewSpec::Bca(Fidelity::Relaxed, Vec::new()),
            ViewKind::Tlm => ViewSpec::Tlm(Vec::new()),
        }
    }

    /// Which view this describes.
    pub fn kind(&self) -> ViewKind {
        match self {
            ViewSpec::Rtl(..) => ViewKind::Rtl,
            ViewSpec::Bca(..) => ViewKind::Bca,
            ViewSpec::Tlm(_) => ViewKind::Tlm,
        }
    }

    /// Whether a later view of a cell described by this is replayed
    /// against the first view's port log (DESIGN §28). Only a view that
    /// publishes nothing but its ports qualifies: the RTL view has engine
    /// counters and structural coverage and the TLM view `tlm.*`
    /// counters, which the steps before a mismatch would count twice.
    pub(crate) fn replays(&self) -> bool {
        matches!(self, ViewSpec::Bca(..))
    }

    /// Elaborates the described view for a configuration.
    pub fn build(&self, config: &NodeConfig) -> Box<dyn DutView> {
        match self.elaborate(config) {
            Elaborated::Rtl(node) => node,
            Elaborated::Other(dut) => dut,
        }
    }

    pub(crate) fn elaborate(&self, config: &NodeConfig) -> Elaborated {
        let config = config.clone();
        match self {
            ViewSpec::Rtl(engine, bugs) => {
                Elaborated::Rtl(Box::new(RtlNode::with_bugs_engine(config, bugs, *engine)))
            }
            ViewSpec::Bca(fidelity, bugs) => {
                let mut node = BcaNode::new(config, *fidelity);
                bugs.iter().for_each(|bug| node.inject_bug(*bug));
                Elaborated::Other(Box::new(node))
            }
            ViewSpec::Tlm(bugs) => {
                let mut node = TlmNode::new(config);
                bugs.iter().for_each(|bug| node.inject_bug(*bug));
                Elaborated::Other(Box::new(node))
            }
        }
    }
}

/// Elaborates one design view for a configuration on the default (event)
/// simulation backend.
///
/// The BCA view is built at its realistic default fidelity
/// ([`Fidelity::Relaxed`]); describe it with a [`ViewSpec`] for
/// exact-fidelity or bug-injection runs.
pub fn build_view(config: &NodeConfig, kind: ViewKind) -> Box<dyn DutView> {
    ViewSpec::of(kind).build(config)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factory_builds_every_view() {
        let cfg = NodeConfig::reference();
        for kind in ViewKind::ALL {
            assert_eq!(build_view(&cfg, kind).view_kind(), kind);
        }
    }
}
