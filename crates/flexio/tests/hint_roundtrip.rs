//! Exhaustive XML-hint round trip: one config setting every key in
//! [`HintKey::ALL`] to a non-default value, asserting each parsed field
//! changed accordingly. This is the regression fence for the class of
//! bug where a hint is documented but silently ignored by `from_config`
//! (as `inline_capacity` once was) — and, for the keys no other suite
//! names, that the parsed value changes what a stream does.

use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use adios::IoConfig;
use evpath::{FieldValue, Record, SocketKind};
use flexio::link::{recv_record, ChannelId, LinkState, StreamError};
use flexio::{
    open_reader_proc, CachingLevel, FlexIo, HintKey, ProcConfig, RemoteDirectory, StreamHints,
    Transport, WireContact, WireDirNode, WriteMode,
};
use machine::{laptop, CoreLocation};
use shm::BufferPool;

/// Parse a run of `<hint .../>` elements the way an application would.
fn hints_from_xml(hints_xml: &str) -> StreamHints {
    let xml = format!(
        r#"<adios-config><group name="g"><method transport="STREAM">{hints_xml}</method></group></adios-config>"#
    );
    StreamHints::from_config(IoConfig::from_xml(&xml).unwrap().group("g").unwrap())
}

/// The non-default value each key is set to in the round-trip config.
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
        HintKey::FaultSeed => "77",
        // The transport default is environment-sensitive
        // (`FLEXIO_TRANSPORT`), so pick whichever value it is not.
        HintKey::TransportSel => match StreamHints::default().transport {
            Transport::Tcp => "uds",
            _ => "tcp",
        },
        HintKey::NetConnectMs => "777",
        HintKey::NetMaxFrameMb => "64",
    }
}

#[test]
fn every_hint_key_round_trips_through_xml() {
    let hints_xml: String = HintKey::ALL
        .iter()
        .map(|&k| format!(r#"<hint name="{}" value="{}"/>"#, k.as_str(), nondefault_value(k)))
        .collect();
    let h = hints_from_xml(&hints_xml);
    assert_eq!(h.caching, CachingLevel::CachingAll);
    assert!(h.batching);
    assert_eq!(h.write_mode, WriteMode::Sync);
    assert_eq!(h.queue_entries, 7);
    assert_eq!(h.inline_capacity, 9000, "inline_capacity hint must be parsed");
    assert_eq!(h.recv_timeout, Duration::from_millis(1234));
    assert_eq!(h.retries, 9);
    assert!(h.transactional);
    assert!(h.eos_on_silence);
    assert_eq!(h.faults.as_ref().expect("fault.seed enables the plan").seed(), 77);
    let expected_tp = match StreamHints::default().transport {
        Transport::Tcp => Transport::Uds,
        _ => Transport::Tcp,
    };
    assert_eq!(h.transport, expected_tp);
    assert_eq!(h.net_connect_timeout, Duration::from_millis(777));
    assert_eq!(h.net_max_frame, 64 << 20, "net.max_frame_mb is in MiB");

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
    assert_ne!(h.transport, defaults.transport);
    assert_ne!(h.net_connect_timeout, defaults.net_connect_timeout);
    assert_ne!(h.net_max_frame, defaults.net_max_frame);
    assert!(defaults.faults.is_none());
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
    assert_eq!(h.transport, Transport::Uds);
    assert_eq!(h.net_connect_timeout, Duration::from_millis(777));
    assert_eq!(h.net_max_frame, 64 << 20);
}

#[test]
fn retired_hints_are_ignored_like_any_unknown_hint() {
    // A config written for a knob that no longer exists — the old
    // marshal A/B switch, the second engine driver, the extension tiers'
    // one-time XML route (they are configured through their structs and
    // builders) — must still load, and change nothing.
    let parse = |hints_xml: &str| format!("{:?}", hints_from_xml(hints_xml));
    let bare = parse(r#"<hint name="retries" value="9"/>"#);
    for (stale, value) in [
        ("packed_marshal", "false"),
        ("runtime", "reactor"),
        ("pubsub.qos", "false"),
        ("query.pushdown", "false"),
        ("elastic.target_lag", "false"),
        ("directory.shards", "false"),
        ("no_such_hint", "false"),
    ] {
        assert!(HintKey::ALL.iter().all(|k| k.as_str() != stale));
        let with = parse(&format!(
            r#"<hint name="{stale}" value="{value}"/><hint name="retries" value="9"/>"#
        ));
        assert_eq!(with, bare, "`{stale}` must be ignored");
    }
}

/// A 1x1 coupling's link, opened with `hints` on two cores of one node.
fn coupled_link(name: &str, hints: StreamHints) -> Arc<LinkState> {
    let io = FlexIo::single_node(laptop());
    let (wcore, rcore) =
        (CoreLocation { node: 0, numa: 0, core: 0 }, CoreLocation { node: 0, numa: 0, core: 1 });
    let w = io.open_writer(name, 0, 1, wcore, vec![wcore], hints.clone()).unwrap();
    let _r = io.open_reader(name, 0, 1, rcore, vec![rcore], hints).unwrap();
    Arc::clone(w.link())
}

fn blob_record(len: usize) -> Vec<u8> {
    Record::new().with("blob", FieldValue::from(vec![0xA5u8; len])).encode()
}

/// Payload length of a received [`blob_record`] (small blobs decode
/// owned, bulk ones as a view into the receive buffer).
fn blob_len(record: &Record) -> Option<usize> {
    record.get_bytes("blob").map(<[u8]>::len)
}

#[test]
fn inline_capacity_decides_which_shm_path_a_record_takes() {
    // ~600 bytes on the wire: over the default 512-byte entry, under 1024.
    let wire = blob_record(560);
    assert!((513..1024).contains(&wire.len()), "wire size {}", wire.len());
    let acquisitions = |inline_hint: &str| {
        let hints =
            hints_from_xml(&format!(r#"<hint name="transport" value="shm"/>{inline_hint}"#));
        let link = coupled_link("inline", hints.clone());
        // The claiming thread's installed pool is the one the channel
        // draws pooled buffers from, so its counters see the path taken.
        let pool = BufferPool::new(1 << 20);
        shm::placement::install_thread_pool(pool.clone());
        let id = ChannelId::Data { w: 0, r: 0 };
        let (mut tx, mut rx) = (link.claim_sender(id), link.claim_receiver(id));
        shm::placement::clear_thread_pool();
        tx.send(&wire);
        let got = recv_record(&mut rx, &hints, &link.counters).expect("record arrives");
        assert_eq!(blob_len(&got), Some(560));
        let stats = pool.stats();
        stats.hits + stats.misses
    };
    assert_eq!(acquisitions(r#"<hint name="inline_capacity" value="1024"/>"#), 0, "inline");
    assert_eq!(acquisitions(""), 1, "the default 512-byte entry sends it through the pool");
}

#[test]
fn undersized_shm_hints_still_claim_a_working_channel() {
    // The shm queue needs two entries and 32 inline bytes; a config asking
    // for less gets the minimum instead of a panic at channel claim.
    for hint in [
        r#"<hint name="inline_capacity" value="16"/>"#,
        r#"<hint name="queue_entries" value="1"/>"#,
        r#"<hint name="queue_entries" value="0"/>"#,
    ] {
        let hints = hints_from_xml(&format!(r#"<hint name="transport" value="shm"/>{hint}"#));
        let link = coupled_link("undersized", hints.clone());
        let id = ChannelId::Data { w: 0, r: 0 };
        let (mut tx, mut rx) = (link.claim_sender(id), link.claim_receiver(id));
        tx.send(&blob_record(100));
        let got = recv_record(&mut rx, &hints, &link.counters).expect("record arrives");
        assert_eq!(blob_len(&got), Some(100), "{hint}");
    }
}

#[test]
fn net_max_frame_mb_saturates_instead_of_wrapping() {
    let cap = |mb: &str| {
        hints_from_xml(&format!(r#"<hint name="net.max_frame_mb" value="{mb}"/>"#)).net_max_frame
    };
    assert_eq!(cap("1"), 1 << 20);
    assert_eq!(cap("4096"), u32::MAX);
    assert_eq!(cap("4294967296"), u32::MAX, "a 2^32 MiB cap must not wrap to 0 bytes");
    assert_eq!(cap("18446744073709551615"), u32::MAX);
}

#[test]
fn retries_saturate_instead_of_wrapping() {
    let retries =
        |r: &str| hints_from_xml(&format!(r#"<hint name="retries" value="{r}"/>"#)).retries;
    assert_eq!(retries("9"), 9);
    assert_eq!(retries("4294967295"), u32::MAX);
    assert_eq!(retries("4294967297"), u32::MAX, "2^32 + 1 retries must not wrap to 1");
}

#[test]
fn net_max_frame_mb_caps_what_a_tcp_channel_accepts() {
    let receive_2mib = |cap_hint: &str| {
        let hints = hints_from_xml(&format!(
            r#"<hint name="transport" value="tcp"/><hint name="timeout_ms" value="5000"/>{cap_hint}"#
        ));
        let link = coupled_link("framecap", hints.clone());
        let id = ChannelId::Data { w: 0, r: 0 };
        let (mut tx, mut rx) = (link.claim_sender(id), link.claim_receiver(id));
        // 2 MiB does not fit a socket buffer: the send needs the receiver
        // draining (or, once it refused the frame, gone).
        let sender = thread::spawn(move || tx.send(&blob_record(2 << 20)));
        let outcome = recv_record(&mut rx, &hints, &link.counters);
        drop(rx);
        sender.join().unwrap();
        outcome
    };
    let delivered = receive_2mib("").expect("the default cap admits a 2 MiB chunk");
    assert_eq!(blob_len(&delivered), Some(2 << 20));
    let refused = receive_2mib(r#"<hint name="net.max_frame_mb" value="1"/>"#);
    assert!(matches!(refused, Err(StreamError::Corrupt(_))), "got {refused:?}");
}

#[test]
fn net_connect_ms_bounds_the_wait_on_a_dead_address() {
    // A writer coordinator that registered and then died: its endpoint is
    // in the directory, nobody listens behind it.
    let node = WireDirNode::bind(0, SocketKind::Tcp, Duration::from_secs(3600), None).unwrap();
    let dir_addr = node.addr().to_string();
    thread::spawn(move || {
        let mut reactor = flexio_reactor::Reactor::new();
        node.spawn_on(&mut reactor);
        reactor.run();
    });
    let one_core_roster = vec![1, 0, 0, 0];
    RemoteDirectory::new(vec![dir_addr.clone()])
        .register(
            "orphan#w0",
            &WireContact {
                addr: format!("uds:/tmp/flexio-nobody-listens-{}", std::process::id()),
                meta: one_core_roster,
            },
        )
        .unwrap();
    let start = Instant::now();
    let opened = open_reader_proc(ProcConfig {
        stream: "orphan".to_string(),
        rank: 0,
        nranks: 1,
        dir_addrs: vec![dir_addr],
        kind: SocketKind::Tcp,
        hints: hints_from_xml(r#"<hint name="net.connect_ms" value="150"/>"#),
    });
    let waited = start.elapsed();
    assert!(opened.is_err(), "nobody to attach to");
    assert!(waited >= Duration::from_millis(150), "gave up early: {waited:?}");
    assert!(waited < Duration::from_millis(1500), "ignored the hint (default is 2 s): {waited:?}");
}
