//! Span parentage over a real parallel campaign: every span end event
//! names its parent, worker spans included, and every named parent is a
//! span the stream carries.

use stbus_protocol::NodeConfig;
use stbus_regression::{run_regression, RegressionOptions};
use std::collections::HashMap;
use telemetry::{Event, MemorySink, Telemetry};

/// The span fields of one end event.
#[derive(Clone, Copy)]
struct Link {
    id: u64,
    parent: Option<u64>,
    track: u64,
}

fn link(event: &Event) -> Link {
    let field = |key: &str| event.field(key).and_then(telemetry::Json::as_u64);
    Link {
        id: field("id").expect("span end events carry an id"),
        parent: field("parent"),
        track: field("track").expect("span end events carry a track"),
    }
}

#[test]
fn parallel_campaign_spans_name_their_parents() {
    let (sink, handle) = MemorySink::new();
    let tel = Telemetry::builder().with_sink(Box::new(sink)).build();
    let tests = vec![
        catg::tests_lib::basic_read_write(6),
        catg::tests_lib::random_mixed(6),
    ];
    let options = RegressionOptions {
        seeds: vec![1, 2],
        jobs: 2,
        telemetry: tel.clone(),
        ..RegressionOptions::default()
    };
    run_regression(&[NodeConfig::reference()], &tests, &options);
    tel.flush();
    let events = handle.events();

    let ends: Vec<(&str, Link)> = events
        .iter()
        .filter_map(|e| Some((e.scope.strip_suffix(".end")?, link(e))))
        .collect();
    let by_id: HashMap<u64, (&str, u64)> = ends
        .iter()
        .map(|&(name, l)| (l.id, (name, l.track)))
        .collect();
    assert_eq!(by_id.len(), ends.len(), "span ids are unique");

    let campaigns: Vec<_> = ends
        .iter()
        .filter(|(name, _)| *name == "regress.campaign")
        .collect();
    assert_eq!(campaigns.len(), 1);
    let campaign = campaigns[0].1;
    assert_eq!(campaign.parent, None);

    let mut cells = 0;
    let mut worker_cells = 0;
    let mut runs = 0;
    let mut elaborations = 0;
    for &(name, Link { id, parent, track }) in &ends {
        if let Some(parent) = parent {
            assert!(
                by_id.contains_key(&parent),
                "{name} (span {id}) names parent {parent}, which no event carries"
            );
        }
        match name {
            "regress.cell" => {
                cells += 1;
                worker_cells += usize::from(track != campaign.track);
                assert_eq!(parent, Some(campaign.id), "cell {id} hangs elsewhere");
            }
            "tb.run" => {
                runs += 1;
                let parent = parent.expect("tb.run runs under a cell");
                assert_eq!(
                    by_id[&parent],
                    ("regress.cell", track),
                    "tb.run {id} must hang under a cell on its own track"
                );
            }
            "cell.elaborate" => {
                elaborations += 1;
                let parent = parent.expect("cell.elaborate runs under a cell");
                assert_eq!(
                    by_id[&parent],
                    ("regress.cell", track),
                    "cell.elaborate {id} must hang under a cell on its own track"
                );
            }
            _ => {}
        }
    }
    // Each (test, seed) cell runs RTL and BCA, each view under its own
    // `regress.cell` span holding that view's `cell.elaborate` and its
    // one `tb.run`.
    assert_eq!(cells, 2 * 2 * 2);
    assert_eq!(runs, cells);
    assert_eq!(
        elaborations, cells,
        "each view is elaborated or reused once"
    );
    // Each worker elaborates its first cell's views and reuses them for
    // every later cell of the one configuration.
    let reused = events
        .iter()
        .filter(|e| e.scope == "cell.elaborate.end")
        .filter(|e| e.field("reused").and_then(telemetry::Json::as_bool) == Some(true))
        .count();
    assert!(
        reused > 0 && reused < elaborations,
        "{reused} of {elaborations}"
    );
    assert!(worker_cells > 0, "cells run on worker threads at --jobs 2");
}
