//! Span parentage over a real parallel campaign: every span end event
//! names its parent, worker spans included, and every named parent is a
//! span the stream carries. The profile built from those links charges
//! the campaign no time for the cells its workers ran.

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

/// The events of a two-test, two-seed campaign at `--jobs 2`.
fn parallel_campaign_events() -> Vec<Event> {
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
    handle.events()
}

#[test]
fn parallel_campaign_spans_name_their_parents() {
    let events = parallel_campaign_events();

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

/// At `--jobs 2` the campaign's self time in the profile is its duration
/// less its child spans on its own track and its phase slices: the cells
/// on worker tracks ran beside it, so they are not subtracted.
#[test]
fn parallel_campaign_self_time_keeps_worker_cells_out() {
    let spans = profile::collect_spans(&parallel_campaign_events());

    let campaign = spans
        .iter()
        .find(|s| s.name == "regress.campaign")
        .expect("one campaign span");
    let children = spans.iter().filter(|s| s.parent == Some(campaign.id));
    let (own_track, worker_tracks): (Vec<_>, Vec<_>) =
        children.partition(|s| s.track == campaign.track);
    let worker_cells: u64 = worker_tracks
        .iter()
        .filter(|s| s.name == "regress.cell")
        .map(|s| s.duration_us())
        .sum();
    assert!(worker_cells > 0, "cells ran on worker tracks");
    let nested: u64 = own_track.iter().map(|s| s.duration_us()).sum();
    let sliced: u64 = campaign.phases().iter().map(|(_, us)| us).sum();
    let expected = campaign.duration_us().saturating_sub(nested + sliced);

    let profile = profile::build_profile(&spans, &profile::ProfileOptions::default());
    let node = &profile.roots["regress.campaign"];
    assert_eq!(node.count, 1);
    // Subtracting the worker cells too would give less than `expected`
    // (or zero), as long as the campaign kept some time of its own.
    assert!(expected > 0, "the campaign's own track did work");
    assert_eq!(node.self_us, expected);
}
