//! Exhaustive XML-hint round trip: one config setting every key in
//! [`HintKey::ALL`] to a non-default value, asserting each parsed field
//! changed accordingly. This is the regression fence for the class of
//! bug where a hint is documented but silently ignored by `from_config`
//! (as `inline_capacity` once was).

use std::path::Path;
use std::time::Duration;

use adios::IoConfig;
use flexio::{
    CachingLevel, DirectoryConfig, ElasticConfig, HintKey, PubSubConfig, Qos, QueryConfig, Runtime,
    StreamHints, Transport, WriteMode,
};

/// The non-default value each key is set to in the round-trip config.
/// (`runtime`'s default is environment-sensitive — `FLEXIO_RUNTIME`
/// overrides it — so its non-default is computed, not hardcoded.)
fn nondefault_value(key: HintKey) -> &'static str {
    match key {
        HintKey::Caching => "CACHING_ALL",
        HintKey::Batching => "true",
        // Default write mode is Async, so the non-default is sync.
        HintKey::Async => "false",
        HintKey::QueueEntries => "7",
        HintKey::InlineCapacity => "9000",
        HintKey::TimeoutMs => "1234",
        HintKey::Retries => "9",
        HintKey::Transactional => "true",
        HintKey::EosOnSilence => "true",
        HintKey::Runtime => match StreamHints::default().runtime {
            Runtime::Reactor => "blocking",
            _ => "reactor",
        },
        HintKey::FaultSeed => "77",
        // Like `runtime`, the transport default is environment-sensitive
        // (`FLEXIO_TRANSPORT`), so pick whichever value it is not.
        HintKey::TransportSel => match StreamHints::default().transport {
            Transport::Tcp => "uds",
            _ => "tcp",
        },
        HintKey::NetConnectMs => "777",
        HintKey::NetMaxFrameMb => "64",
        HintKey::DirectoryShards => "16",
        HintKey::DirectoryNodes => "3",
        HintKey::DirectoryGossipMs => "25",
        HintKey::PubsubGroups => "5",
        HintKey::PubsubReplaySteps => "3",
        HintKey::PubsubSpillDir => "/tmp/flexio-pubsub-hint",
        HintKey::PubsubQos => "latest",
        HintKey::QueryPushdown => "false",
        HintKey::QueryWindowSteps => "4",
        HintKey::QueryMaxRows => "99",
        HintKey::QueryOracle => "true",
        HintKey::ElasticIntervalMs => "40",
        HintKey::ElasticMinReaders => "2",
        HintKey::ElasticMaxReaders => "6",
        HintKey::ElasticTargetLag => "5",
    }
}

#[test]
fn every_hint_key_round_trips_through_xml() {
    let hints_xml: String = HintKey::ALL
        .iter()
        .map(|&k| format!(r#"<hint name="{}" value="{}"/>"#, k.as_str(), nondefault_value(k)))
        .collect();
    let xml = format!(
        r#"<adios-config><group name="g"><method transport="STREAM">{hints_xml}</method></group></adios-config>"#
    );
    let cfg = IoConfig::from_xml(&xml).unwrap();
    let group = cfg.group("g").unwrap();

    let h = StreamHints::from_config(group);
    assert_eq!(h.caching, CachingLevel::CachingAll);
    assert!(h.batching);
    assert_eq!(h.write_mode, WriteMode::Sync);
    assert_eq!(h.queue_entries, 7);
    assert_eq!(h.inline_capacity, 9000, "inline_capacity hint must be parsed");
    assert_eq!(h.recv_timeout, Duration::from_millis(1234));
    assert_eq!(h.retries, 9);
    assert!(h.transactional);
    assert!(h.eos_on_silence);
    let expected_rt = match StreamHints::default().runtime {
        Runtime::Reactor => Runtime::Blocking,
        _ => Runtime::Reactor,
    };
    assert_eq!(h.runtime, expected_rt);
    assert_eq!(h.faults.as_ref().expect("fault.seed enables the plan").seed(), 77);
    let expected_tp = match StreamHints::default().transport {
        Transport::Tcp => Transport::Uds,
        _ => Transport::Tcp,
    };
    assert_eq!(h.transport, expected_tp);
    assert_eq!(h.net_connect_timeout, Duration::from_millis(777));
    assert_eq!(h.net_max_frame, 64 << 20, "net.max_frame_mb is in MiB");

    let d = DirectoryConfig::from_config(group);
    assert_eq!(d.shards, 16);
    assert_eq!(d.nodes, 3);
    assert_eq!(d.gossip_interval, Duration::from_millis(25));

    let p = PubSubConfig::from_config(group);
    assert_eq!(p.groups, 5);
    assert_eq!(p.replay_steps, 3);
    assert_eq!(p.spill_dir.as_deref(), Some(Path::new("/tmp/flexio-pubsub-hint")));
    assert_eq!(p.qos, Qos::LatestOnly);

    let q = QueryConfig::from_config(group);
    assert!(!q.pushdown, "query.pushdown hint must be parsed");
    assert_eq!(q.window_steps, 4);
    assert_eq!(q.max_rows, 99);
    assert!(q.oracle, "query.oracle hint must be parsed");

    let e = ElasticConfig::from_config(group);
    assert_eq!(e.interval, Duration::from_millis(40));
    assert_eq!(e.min_readers, 2);
    assert_eq!(e.max_readers, 6);
    assert_eq!(e.target_lag, 5);

    // Each asserted value differs from the default, so a silently
    // ignored key cannot pass by accident.
    let defaults = StreamHints::default();
    assert_ne!(h.caching, defaults.caching);
    assert_ne!(h.batching, defaults.batching);
    assert_ne!(h.write_mode, defaults.write_mode);
    assert_ne!(h.queue_entries, defaults.queue_entries);
    assert_ne!(h.inline_capacity, defaults.inline_capacity);
    assert_ne!(h.recv_timeout, defaults.recv_timeout);
    assert_ne!(h.retries, defaults.retries);
    assert_ne!(h.transactional, defaults.transactional);
    assert_ne!(h.eos_on_silence, defaults.eos_on_silence);
    assert_ne!(h.runtime, defaults.runtime);
    assert_ne!(h.transport, defaults.transport);
    assert_ne!(h.net_connect_timeout, defaults.net_connect_timeout);
    assert_ne!(h.net_max_frame, defaults.net_max_frame);
    assert!(defaults.faults.is_none());
    let ddef = DirectoryConfig::default();
    assert_ne!(d.shards, ddef.shards);
    assert_ne!(d.nodes, ddef.nodes);
    assert_ne!(d.gossip_interval, ddef.gossip_interval);
    let pdef = PubSubConfig::default();
    assert_ne!(p.groups, pdef.groups);
    assert_ne!(p.replay_steps, pdef.replay_steps);
    assert_ne!(p.spill_dir, pdef.spill_dir);
    assert_ne!(p.qos, pdef.qos);
    let qdef = QueryConfig::default();
    assert_ne!(q.pushdown, qdef.pushdown);
    assert_ne!(q.window_steps, qdef.window_steps);
    assert_ne!(q.max_rows, qdef.max_rows);
    assert_ne!(q.oracle, qdef.oracle);
    let edef = ElasticConfig::default();
    assert_ne!(e.interval, edef.interval);
    assert_ne!(e.min_readers, edef.min_readers);
    assert_ne!(e.max_readers, edef.max_readers);
    assert_ne!(e.target_lag, edef.target_lag);
}

#[test]
fn builder_mirrors_the_parsed_config() {
    // The fluent builder must be able to express everything the XML can
    // (minus the fault plan's seed, which it takes pre-built).
    let h = StreamHints::builder()
        .caching(CachingLevel::CachingAll)
        .batching(true)
        .write_mode(WriteMode::Sync)
        .queue_entries(7)
        .inline_capacity(9000)
        .recv_timeout(Duration::from_millis(1234))
        .retries(9)
        .transactional(true)
        .eos_on_silence(true)
        .runtime(Runtime::Reactor)
        .transport(Transport::Uds)
        .net_connect_timeout(Duration::from_millis(777))
        .net_max_frame(64 << 20)
        .build();
    assert_eq!(h.caching, CachingLevel::CachingAll);
    assert!(h.batching);
    assert_eq!(h.write_mode, WriteMode::Sync);
    assert_eq!(h.queue_entries, 7);
    assert_eq!(h.inline_capacity, 9000);
    assert_eq!(h.recv_timeout, Duration::from_millis(1234));
    assert_eq!(h.retries, 9);
    assert!(h.transactional);
    assert!(h.eos_on_silence);
    assert_eq!(h.runtime, Runtime::Reactor);
    assert_eq!(h.transport, Transport::Uds);
    assert_eq!(h.net_connect_timeout, Duration::from_millis(777));
    assert_eq!(h.net_max_frame, 64 << 20);
}

#[test]
fn retired_hint_is_ignored_like_any_unknown_hint() {
    // The engine always encodes segments and decodes shared; a config
    // written for the old A/B knob must still load, and change nothing.
    let parse = |hints_xml: &str| {
        let xml = format!(
            r#"<adios-config><group name="g"><method transport="STREAM">{hints_xml}</method></group></adios-config>"#
        );
        let cfg = IoConfig::from_xml(&xml).unwrap();
        format!("{:?}", StreamHints::from_config(cfg.group("g").unwrap()))
    };
    let bare = parse(r#"<hint name="retries" value="9"/>"#);
    for stale in ["packed_marshal", "no_such_hint"] {
        assert!(HintKey::ALL.iter().all(|k| k.as_str() != stale));
        let with = parse(&format!(
            r#"<hint name="{stale}" value="false"/><hint name="retries" value="9"/>"#
        ));
        assert_eq!(with, bare, "`{stale}` must be ignored");
    }
}
