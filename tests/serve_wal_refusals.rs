//! A block the daemon refuses must never come back after a restart.
//!
//! The script: ack D1, send D3(X) — refused, D2 is missing — ack D2,
//! ack D3(Y), restart over the same WAL directory. The recovered daemon
//! must serve D1, D2, D3(Y), exactly what it acked, at one shard and at
//! two. A second test hand-writes the logs such a daemon could have left
//! behind when refused blocks still reached the log: D1, D3(X), D2,
//! D3(Y) must recover to D1, D2, D3(Y) at one shard and at two, and a
//! one-lane D1, D3(X), D2 — no D3 acked after the refusal — must recover
//! to D1, D2 alone.

use demon::itemsets::persist::encode_block_txs;
use demon::itemsets::{FrequentItemsets, TxStore};
use demon::serve::shard::{lane_dir, shard_of};
use demon::serve::{Client, Request, ServeConfig, Server};
use demon::types::wal::{wal_file_path, WalWriter};
use demon::types::{Block, BlockId, Item, MinSupport, ModelClass, Tid, Transaction, TxBlock};
use std::path::{Path, PathBuf};

const N_ITEMS: u32 = 16;

fn tmp(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("demon-wal-refusals-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// A block of ten transactions, all over the given items.
fn block(id: u64, items: &[u32]) -> TxBlock {
    let txs = (0..10)
        .map(|i| Transaction::new(Tid(id * 100 + i), items.iter().copied().map(Item).collect()))
        .collect();
    Block::new(BlockId(id), txs)
}

fn d1() -> TxBlock {
    block(1, &[0, 1])
}
fn d2() -> TxBlock {
    block(2, &[0, 2])
}
/// The D3 the daemon refuses (sent before D2).
fn d3_refused() -> TxBlock {
    block(3, &[8, 9])
}
/// The D3 the daemon acks.
fn d3_acked() -> TxBlock {
    block(3, &[4, 5])
}

fn minsup() -> MinSupport {
    MinSupport::new(0.3).unwrap()
}

/// The batch model of the acked stream D1, D2, D3(Y).
fn acked_model_json() -> String {
    model_json(&[d1(), d2(), d3_acked()])
}

/// The batch model of `blocks`.
fn model_json(blocks: &[TxBlock]) -> String {
    let mut store = TxStore::new(N_ITEMS);
    for b in blocks {
        store.add_block(b.clone());
    }
    let ids = store.block_ids().to_vec();
    let model = FrequentItemsets::mine_from(&store, &ids, minsup()).unwrap();
    serde_json::to_string(&model).unwrap()
}

/// Binds a durable daemon over `wal_dir`, runs it on a thread, and
/// returns a connected client plus the join handle.
fn start(
    wal_dir: &Path,
    shards: usize,
) -> (
    Client,
    std::thread::JoinHandle<demon::types::Result<demon::serve::ServeSummary>>,
) {
    let mut config = ServeConfig::new("127.0.0.1:0", N_ITEMS, minsup());
    config.shards = shards;
    config.wal_dir = Some(wal_dir.to_path_buf());
    let server = Server::bind(config).expect("bind");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run());
    (Client::connect(addr).expect("connect"), handle)
}

fn stop(
    mut client: Client,
    handle: std::thread::JoinHandle<demon::types::Result<demon::serve::ServeSummary>>,
) {
    client.shutdown().expect("shutdown acked");
    handle.join().expect("server thread").expect("run ok");
}

#[test]
fn refused_block_is_not_recovered_in_place_of_the_acked_one() {
    for shards in [1usize, 2] {
        let wal_dir = tmp(&format!("script-{shards}"));
        let (mut client, handle) = start(&wal_dir, shards);
        client.ingest(N_ITEMS, &d1()).expect("D1 acked");
        let err = client
            .ingest(N_ITEMS, &d3_refused())
            .expect_err("D3 before D2 must be refused")
            .to_string();
        assert!(err.contains("expected block D2"), "{err}");
        client.ingest(N_ITEMS, &d2()).expect("D2 acked");
        client.ingest(N_ITEMS, &d3_acked()).expect("D3 acked");
        assert_eq!(client.query_model_json().unwrap(), acked_model_json());
        stop(client, handle);

        let (mut client, handle) = start(&wal_dir, shards);
        assert_eq!(
            client.query_model_json().unwrap(),
            acked_model_json(),
            "shards={shards}: recovery served a block the daemon refused"
        );
        stop(client, handle);
        std::fs::remove_dir_all(&wal_dir).ok();
    }
}

/// Hand-writes `blocks`, in order, into the lanes of a fresh
/// `shards`-lane WAL directory, as a daemon that logged refused blocks
/// could have left it.
fn write_legacy_log(name: &str, shards: usize, blocks: &[TxBlock]) -> PathBuf {
    let wal_dir = tmp(name);
    let mut writers: Vec<WalWriter> = (0..shards)
        .map(|s| {
            let lane = lane_dir(&wal_dir, s, shards);
            std::fs::create_dir_all(&lane).unwrap();
            WalWriter::create(&wal_file_path(&lane, 0), 0, ModelClass::Itemsets.tag()).unwrap()
        })
        .collect();
    for b in blocks {
        let body = Request::IngestBlock {
            class: ModelClass::Itemsets.tag(),
            id: b.id(),
            interval: None,
            meta: N_ITEMS,
            payload: encode_block_txs(b),
        }
        .encode();
        writers[shard_of(b.id(), shards)].append(&body).unwrap();
    }
    wal_dir
}

#[test]
fn recovery_never_replays_a_logged_refusal() {
    let cases = [
        (
            1,
            vec![d1(), d3_refused(), d2(), d3_acked()],
            acked_model_json(),
        ),
        (
            2,
            vec![d1(), d3_refused(), d2(), d3_acked()],
            acked_model_json(),
        ),
        // Nothing acked under id 3 after the refusal: the one lane's log
        // order shows D3(X) arrived before D2, so it is skipped.
        (1, vec![d1(), d3_refused(), d2()], model_json(&[d1(), d2()])),
    ];
    for (case, (shards, log, expected)) in cases.into_iter().enumerate() {
        let wal_dir = write_legacy_log(&format!("legacy-{case}"), shards, &log);
        let (mut client, handle) = start(&wal_dir, shards);
        assert_eq!(
            client.query_model_json().unwrap(),
            expected,
            "case {case}, shards={shards}: recovery replayed the refused D3"
        );
        stop(client, handle);
        std::fs::remove_dir_all(&wal_dir).ok();
    }
}
