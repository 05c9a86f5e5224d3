//! Network serving over a unix-domain socket: a `WireServer` and a
//! blocking `WireClient` in one process, speaking `mdqwire` frames under
//! the checksummed `mdqt2` envelope.
//!
//! A two-shard router serves behind the socket. The client round-trips a
//! small workload (every circuit raw-bit identical to the one-shot
//! sequential pipeline), a suspended tenant gets its quota refusal back
//! as a typed `tenant-over-quota` error frame — the request is still in
//! the client's hands, and the *same frame* completes once the quota
//! lifts — and finally the whole server is killed and rebound on the same
//! path: shards write their cache snapshots on the way down, the reborn
//! server loads them, and the client rides its retry/backoff straight
//! through the restart into warm cache hits.
//!
//! Run with: `cargo run --release --example remote_serving`

#[cfg(unix)]
fn main() -> Result<(), Box<dyn std::error::Error>> {
    use mdq::core::PrepareOptions;
    use mdq::engine::{EngineConfig, ErrorFrame, PrepareRequest, RequestFrame};
    use mdq::num::radix::Dims;
    use mdq::router::{Router, RouterConfig, TenantId, TenantQuota};
    use mdq::states::{ghz, w_state};
    use mdq::transport::{
        Backend, ClientConfig, ServerAddr, ServerConfig, ServerReply, WireClient, WireServer,
    };

    let scratch = std::env::temp_dir().join("mdq_remote_serving_example");
    let _ = std::fs::remove_dir_all(&scratch);
    let snapshot_dir = scratch.join("snapshots");
    std::fs::create_dir_all(&snapshot_dir)?;
    let socket = scratch.join("serve.sock");
    let addr = ServerAddr::unix(&socket);

    // ── A two-shard router behind a unix-socket server ─────────────────
    let bind_router = || {
        let router = Router::new(
            RouterConfig::default()
                .with_engine_config(EngineConfig::default().with_workers(1))
                .with_snapshot_dir(&snapshot_dir),
        );
        router.add_shard(0);
        router.add_shard(1);
        router
    };
    let server = WireServer::bind(
        &addr,
        Backend::Router(Box::new(bind_router())),
        ServerConfig::new(),
    )?;
    println!("serving on {}", server.local_addr());

    let batch = TenantId(1);
    let suspended = TenantId(2);
    server
        .backend()
        .router()
        .expect("router backend")
        .set_quota(suspended, TenantQuota::unlimited().with_max_in_flight(0));

    // ── A blocking client dials the socket and round-trips jobs ────────
    let mut client = WireClient::connect(addr.clone(), ClientConfig::new())?;
    let workload: Vec<PrepareRequest> = [vec![3, 3], vec![2, 3, 4], vec![5, 2]]
        .into_iter()
        .flat_map(|radices| {
            let dims = Dims::new(radices).expect("valid register");
            [
                PrepareRequest::dense(dims.clone(), ghz(&dims), PrepareOptions::exact()),
                PrepareRequest::dense(dims.clone(), w_state(&dims), PrepareOptions::exact()),
            ]
        })
        .collect();
    for request in &workload {
        let reference = request.clone().prepare_sequential()?;
        let frame = RequestFrame {
            tenant: Some(batch.0),
            request: request.clone(),
        };
        let report = client
            .call(&frame)?
            .report()
            .expect("batch tenant is unbounded");
        assert_eq!(
            *report.report.circuit, reference.circuit,
            "served circuit raw-bit identical to the sequential pipeline"
        );
        println!(
            "served {:>10}: {} instructions, from_cache: {}",
            format!("{}", report.dims),
            report.report.circuit.instructions().len(),
            report.report.from_cache
        );
    }

    // ── Quota refusal crosses the wire as a typed error frame ──────────
    let held = RequestFrame {
        tenant: Some(suspended.0),
        request: workload[0].clone(),
    };
    match client.call(&held)? {
        ServerReply::Refused(ErrorFrame::TenantOverQuota {
            tenant,
            in_flight,
            limit,
        }) => println!(
            "tenant {tenant} refused: {in_flight} in flight, limit {limit} \
             — the request is still ours to resubmit"
        ),
        other => panic!("expected a quota refusal, got {other:?}"),
    }
    server
        .backend()
        .router()
        .expect("router backend")
        .set_quota(suspended, TenantQuota::unlimited());
    let report = client
        .call(&held)?
        .report()
        .expect("the same frame completes once the quota lifts");
    println!(
        "tenant {} served after the quota lifted, from_cache: {}",
        suspended.0, report.report.from_cache
    );

    // ── Kill the server; restart warm on the same path ─────────────────
    // Shutdown drains in-flight connections and writes one cache snapshot
    // per shard; the reborn server's shards load them at bind time.
    server.shutdown();
    println!(
        "\nserver killed; snapshots written to {}",
        snapshot_dir.display()
    );
    let reborn = WireServer::bind(
        &addr,
        Backend::Router(Box::new(bind_router())),
        ServerConfig::new(),
    )?;
    let stats = reborn.backend().router().expect("router backend").stats();
    for shard in &stats.shards {
        println!(
            "shard {} rebound warm: {:?} snapshot records loaded",
            shard.shard, shard.warm_loaded
        );
    }

    // The client's old connection died with the first server; the retry
    // budget reconnects and every resubmission is a warm cache hit.
    let mut warm_hits = 0;
    for request in &workload {
        let frame = RequestFrame {
            tenant: Some(batch.0),
            request: request.clone(),
        };
        let report = client
            .call_with_retry(&frame, 5)?
            .report()
            .expect("reborn server serves");
        warm_hits += usize::from(report.report.from_cache);
    }
    println!(
        "resubmitted {} jobs through the restart: {warm_hits} warm cache hits, \
         {} reconnect(s)",
        workload.len(),
        client.connections() - 1
    );
    assert!(
        warm_hits > 0,
        "the reborn shards must serve from their snapshots"
    );

    reborn.shutdown();
    let _ = std::fs::remove_dir_all(&scratch);
    Ok(())
}

#[cfg(not(unix))]
fn main() {
    println!("remote_serving demonstrates unix-domain sockets; on this platform run the transport over TCP instead (see ServerAddr::loopback)");
}
