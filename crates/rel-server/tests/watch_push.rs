//! Standing queries over the wire: subscribe, commit from another
//! connection, and assert the push-path delivery contract — gapless
//! per-watch sequence numbers, snapshot-then-delta framing, O(1)
//! out-of-cone skips, lag coalescing into resync snapshots, and clean
//! unsubscription.

use rel_core::database::figure1_database;
use rel_core::Relation;
use rel_engine::{EngineConfig, Params, Session, WatchDelta};
use rel_server::{Client, ErrorKind, Server, ServerConfig};
use std::time::Duration;

const DRAIN: Duration = Duration::from_secs(5);

fn boot() -> Server {
    let session = rel_stdlib::with_stdlib(figure1_database());
    Server::start(session, ServerConfig::default()).unwrap()
}

/// Apply every received batch to a client-side mirror.
fn apply(state: Relation, d: &WatchDelta) -> Relation {
    d.apply_to(&state)
}

#[test]
fn subscribe_pushes_snapshot_then_gapless_deltas() {
    let server = boot();
    let mut committer = Client::connect(server.addr()).unwrap();
    committer.transact("def insert(:Feed, x) : x = 0").unwrap();

    let mut subscriber = Client::connect(server.addr()).unwrap();
    let mut sub = subscriber
        .subscribe("def output(x) : Feed(x) and x >= ?min", &Params::new().set("min", 0))
        .unwrap();

    // The first batch is always the seq-0 snapshot of the current output.
    let first = sub.recv().unwrap();
    assert_eq!(first.seq, 0);
    assert!(first.snapshot);
    assert_eq!(first.added.len(), 1);
    assert!(first.removed.is_empty());
    let mut mirror = apply(Relation::new(), &first);

    // Each acknowledged in-cone commit pushes exactly one delta, in
    // commit order, with consecutive sequence numbers.
    for i in 1..=5i64 {
        committer.transact(&format!("def insert(:Feed, x) : x = {i}")).unwrap();
        let d = sub.recv_timeout(DRAIN).unwrap().expect("delta for in-cone commit");
        assert_eq!(d.seq, i as u64, "sequence numbers must be gapless");
        assert!(!d.snapshot);
        assert_eq!(d.added.len(), 1);
        mirror = apply(mirror, &d);
    }

    // Deletions arrive as removed rows, not a fresh snapshot.
    committer.transact("def delete(:Feed, x) : Feed(x) and x > 3").unwrap();
    let d = sub.recv_timeout(DRAIN).unwrap().expect("delta for deletion");
    assert_eq!(d.seq, 6);
    assert_eq!(d.removed.len(), 2);
    mirror = apply(mirror, &d);

    // An out-of-cone commit pushes nothing and consumes no sequence
    // number: the next in-cone commit continues the gapless run.
    committer.transact("def insert(:Noise, x) : x = 99").unwrap();
    assert!(sub.try_recv().unwrap().is_none(), "out-of-cone commit must not push");
    committer.transact("def insert(:Feed, x) : x = 100").unwrap();
    let d = sub.recv_timeout(DRAIN).unwrap().expect("delta after noise");
    assert_eq!(d.seq, 7);
    mirror = apply(mirror, &d);

    // The mirror reconstructed purely from pushed batches matches a
    // fresh query of the same program.
    let fresh = committer.query("def output(x) : Feed(x) and x >= 0").unwrap();
    assert_eq!(mirror, fresh);

    sub.unsubscribe().unwrap();
    // The connection is a plain request/reply client again.
    subscriber.ping().unwrap();
    server.shutdown().unwrap();
}

#[test]
fn lagged_subscriber_is_resynced_without_sequence_gaps() {
    // A 1-batch watch buffer plus commit bursts that group into one
    // worker pass force the lag path: buffered deltas are dropped and
    // the next in-cone commit coalesces them into a resync snapshot.
    let cfg = EngineConfig::from_env().watch_buffer(1);
    let session = Session::with_config(figure1_database(), cfg)
        .with_library(&rel_stdlib::full_library());
    let server = Server::start(session, ServerConfig::default()).unwrap();
    let addr = server.addr();

    let mut committer = Client::connect(addr).unwrap();
    committer.transact("def insert(:Feed, x) : x = 0").unwrap();
    // A chain long enough that committing its closure keeps the worker
    // busy while the burst below piles up behind it in the queue.
    for i in 0..120i64 {
        committer.transact(&format!("def insert(:Chain, x, y) : x = {i} and y = {}", i + 1)).unwrap();
    }

    let mut subscriber = Client::connect(addr).unwrap();
    let mut sub = subscriber.subscribe("def output(x) : Feed(x)", &Params::new()).unwrap();
    let first = sub.recv().unwrap();
    assert_eq!((first.seq, first.snapshot), (0, true));
    let mut mirror = apply(Relation::new(), &first);

    let mut resyncs = 0;
    for round in 0..10 {
        // Occupy the worker with a slow commit, then race quick in-cone
        // commits in behind it so they batch into one worker pass.
        let slow = std::thread::spawn(move || {
            let mut c = Client::connect(addr).unwrap();
            c.transact(
                "def insert(:Reach, x, y) : Chain(x, y)\n\
                 def insert(:Reach, x, z) : exists((y) | Reach(x, y) and Chain(y, z))",
            )
            .unwrap();
        });
        let burst: Vec<_> = (0..4)
            .map(|i| {
                std::thread::spawn(move || {
                    let mut c = Client::connect(addr).unwrap();
                    c.transact(&format!("def insert(:Feed, x) : x = {}", 100 * (1 + i) + 1))
                        .unwrap();
                })
            })
            .collect();
        slow.join().unwrap();
        for h in burst {
            h.join().unwrap();
        }
        // One more in-cone commit after the burst drains, so a lagged
        // watch is guaranteed a resync trigger.
        committer.transact(&format!("def insert(:Feed, x) : x = {}", 1000 + round)).unwrap();

        while let Some(d) = sub.recv_timeout(Duration::from_millis(500)).unwrap() {
            if d.snapshot && d.seq > 0 {
                resyncs += 1;
            }
            mirror = apply(mirror, &d);
        }
        let fresh = committer.query("def output(x) : Feed(x)").unwrap();
        assert_eq!(mirror, fresh, "mirror must match a fresh query after round {round}");
        if resyncs > 0 {
            break;
        }
    }
    assert!(resyncs > 0, "the burst rounds never produced a resync snapshot");
    server.shutdown().unwrap();
}

#[test]
fn delivered_sequence_numbers_are_gapless_under_concurrent_commits() {
    let server = boot();
    let addr = server.addr();
    let mut committer = Client::connect(addr).unwrap();
    committer.transact("def insert(:Feed, x) : x = 0").unwrap();

    let mut subscriber = Client::connect(addr).unwrap();
    let mut sub = subscriber.subscribe("def output(x) : Feed(x)", &Params::new()).unwrap();
    assert_eq!(sub.recv().unwrap().seq, 0);

    let burst: Vec<_> = (0..4)
        .map(|i| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                for j in 0..5i64 {
                    c.transact(&format!("def insert(:Feed, x) : x = {}", 10 + 5 * i + j))
                        .unwrap();
                }
            })
        })
        .collect();
    for h in burst {
        h.join().unwrap();
    }

    // 20 distinct in-cone commits: whether or not any coalesced into a
    // resync, the delivered sequence numbers must be consecutive.
    let mut mirror = committer.query("def output(x) : x = 0").unwrap();
    let mut last_seq = 0;
    while let Some(d) = sub.recv_timeout(Duration::from_millis(500)).unwrap() {
        assert_eq!(d.seq, last_seq + 1, "gap in delivered sequence numbers");
        last_seq = d.seq;
        mirror = apply(mirror, &d);
    }
    assert_eq!(mirror, committer.query("def output(x) : Feed(x)").unwrap());
    assert_eq!(mirror.len(), 21);
    server.shutdown().unwrap();
}

#[test]
fn unsubscribe_stops_pushes_and_unknown_watch_is_typed() {
    let server = boot();
    let addr = server.addr();
    let mut committer = Client::connect(addr).unwrap();
    committer.transact("def insert(:Feed, x) : x = 0").unwrap();

    let mut subscriber = Client::connect(addr).unwrap();
    let mut sub = subscriber.subscribe("def output(x) : Feed(x)", &Params::new()).unwrap();
    let first_id = sub.id();
    assert_eq!(sub.recv().unwrap().seq, 0);
    sub.unsubscribe().unwrap();

    committer.transact("def insert(:Feed, x) : x = 1").unwrap();
    // Re-subscribing gets a fresh watch id and a fresh seq-0 snapshot;
    // nothing from the unsubscribed watch leaks through.
    let mut sub = subscriber.subscribe("def output(x) : Feed(x)", &Params::new()).unwrap();
    assert_ne!(sub.id(), first_id);
    let first = sub.recv().unwrap();
    assert_eq!((first.seq, first.snapshot, first.added.len()), (0, true, 2));
    assert!(sub.try_recv().unwrap().is_none());

    // Unsubscribing a dead or foreign watch id answers a typed
    // UnknownWatch error — driven over raw frames since the typed client
    // cannot hold a stale subscription by construction.
    {
        use rel_server::protocol::{read_frame_blocking, write_frame, Request, Response};
        let mut raw = std::net::TcpStream::connect(addr).unwrap();
        let hello = Request::Hello { version: rel_server::PROTOCOL_VERSION };
        write_frame(&mut raw, &hello.encode()).unwrap();
        let payload = read_frame_blocking(&mut raw).unwrap().unwrap();
        assert!(matches!(Response::decode(&payload).unwrap(), Response::Hello { .. }));
        write_frame(&mut raw, &Request::Unsubscribe { watch: first_id }.encode()).unwrap();
        let payload = read_frame_blocking(&mut raw).unwrap().unwrap();
        match Response::decode(&payload).unwrap() {
            Response::Error(e) => assert_eq!(e.kind, ErrorKind::UnknownWatch),
            other => panic!("expected UnknownWatch error, got {other:?}"),
        }
    }

    committer.transact("def insert(:Feed, x) : x = 2").unwrap();
    // The live subscription still sees the commit.
    let d = sub.recv_timeout(DRAIN).unwrap().expect("live watch keeps receiving");
    assert_eq!((d.seq, d.added.len()), (1, 1));
    server.shutdown().unwrap();
}

#[test]
fn dropped_subscriber_connection_is_reaped() {
    let server = boot();
    let addr = server.addr();
    let mut committer = Client::connect(addr).unwrap();
    committer.transact("def insert(:Feed, x) : x = 0").unwrap();

    {
        let mut subscriber = Client::connect(addr).unwrap();
        let mut sub = subscriber.subscribe("def output(x) : Feed(x)", &Params::new()).unwrap();
        assert_eq!(sub.recv().unwrap().seq, 0);
        // Drop the connection without unsubscribing.
    }
    // The server reaps the dead subscription (via the connection-exit
    // cleanup job or the failed delta write); commits keep working and
    // a fresh subscriber starts cleanly at seq 0.
    for i in 1..=3i64 {
        committer.transact(&format!("def insert(:Feed, x) : x = {i}")).unwrap();
    }
    let mut subscriber = Client::connect(addr).unwrap();
    let mut sub = subscriber.subscribe("def output(x) : Feed(x)", &Params::new()).unwrap();
    let first = sub.recv().unwrap();
    assert_eq!((first.seq, first.snapshot, first.added.len()), (0, true, 4));
    server.shutdown().unwrap();
}
