//! The CI server-smoke leg: boot a server over a temporary durable
//! store, drive a few hundred mixed requests through the `rel-client`
//! library — reads, prepared statements, batches, interactive
//! transactions, and one concurrent-commit burst — then shut down
//! cleanly and prove the committed state survives a reopen.

use rel_core::database::figure1_database;
use rel_engine::durability::{DurabilityConfig, FsyncPolicy};
use rel_engine::{EngineConfig, Params, Session};
use rel_server::{Client, Server, ServerConfig};
use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rel-smoke-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn smoke_mixed_load_then_clean_shutdown_and_recovery() {
    let dir = temp_dir("mixed");
    let cfg = EngineConfig::from_env()
        .durability(DurabilityConfig { fsync: FsyncPolicy::Batch, ..DurabilityConfig::default() });
    let session = Session::open_with(&dir, cfg).unwrap();
    assert!(session.is_durable());
    // Seed the store with the paper's example data, as a deployment
    // would before serving.
    let mut session = session.with_library(&rel_stdlib::full_library());
    for (rel, r) in figure1_database().iter() {
        for t in r.iter() {
            session.db_mut().insert(rel.as_ref(), t.clone());
        }
    }
    let server = Server::start(session, ServerConfig::default()).unwrap();
    let addr = server.addr();

    let mut c = Client::connect(addr).unwrap();
    c.ping().unwrap();

    // ~200 read requests: ad-hoc + prepared + batched.
    let stmt = c.prepare("def output(x, p) : ProductPrice(x, p) and p > ?min").unwrap();
    for i in 0..50 {
        let rows = c.query("def output(y) : exists((x) | PaymentOrder(x, y))").unwrap();
        assert_eq!(rows.len(), 3);
        let rows = c.execute(&stmt, &Params::new().set("min", i % 45)).unwrap();
        assert!(rows.len() <= 4);
        let batches: Vec<Params> =
            (0..4).map(|m| Params::new().set("min", 10 * m)).collect();
        assert_eq!(c.execute_many(&stmt, &batches).unwrap().len(), 4);
    }

    // ~40 write requests: one-shot transacts + an interactive txn.
    for i in 0..20 {
        let out = c.transact(&format!("def insert(:Seen, x) : x = {i}")).unwrap();
        assert_eq!(out.inserted, 1);
    }
    let t = c.begin().unwrap();
    c.txn_run(t, "def insert(:Seen, x) : x = 100").unwrap();
    c.txn_stage_insert(t, "Raw", vec![rel_core::tuple![1, 2]]).unwrap();
    c.txn_commit(t).unwrap();
    // Read-your-writes through the pool.
    assert_eq!(c.query("def output[v] : v = count[Seen]").unwrap().len(), 1);

    // One concurrent-commit burst through the group-commit queue.
    const BURST_CLIENTS: i64 = 8;
    const BURST_COMMITS: i64 = 5;
    let handles: Vec<_> = (0..BURST_CLIENTS)
        .map(|i| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                for seq in 0..BURST_COMMITS {
                    let src =
                        format!("def insert(:Burst, x, y) : x = {i} and y = {seq}");
                    assert_eq!(c.transact(&src).unwrap().inserted, 1);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("burst client panicked");
    }

    // Clean shutdown: the queue drains, the store syncs.
    let session = server.shutdown().unwrap();
    let expect_burst = (BURST_CLIENTS * BURST_COMMITS) as usize;
    assert_eq!(session.db().get("Seen").unwrap().len(), 21);
    assert_eq!(session.db().get("Burst").unwrap().len(), expect_burst);
    drop(session);

    // Recovery: everything acknowledged is still there.
    let reopened = Session::open_with(&dir, cfg).unwrap();
    assert_eq!(reopened.db().get("Seen").unwrap().len(), 21);
    assert_eq!(reopened.db().get("Burst").unwrap().len(), expect_burst);
    assert_eq!(reopened.db().get("Raw").unwrap().len(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}
