//! A mail-server-style small-file workload on full file-system stacks.
//!
//! Mail spools are the classic synchronous-small-write victim: each
//! delivery creates a small file and must be durable before the SMTP
//! acknowledgement. This example delivers, re-reads, and expunges messages
//! on all four of the paper's system combinations (UFS/LFS × regular/VLD)
//! and prints per-phase times.
//!
//! Run with: `cargo run --release --example mail_server`

use modelcheck::stack::{DiskKind, FsKind, Obs, StackSpec};
use vlfs::fscore::{FileSystem, HostModel};

const MESSAGES: u32 = 400;

fn main() {
    println!(
        "{:<18} {:>12} {:>12} {:>12}",
        "system", "deliver (s)", "scan (s)", "expunge (s)"
    );
    for stack in StackSpec::ALL {
        let spec = StackSpec::paper(
            stack.fs,
            stack.dev,
            DiskKind::Seagate,
            HostModel::sparcstation_10(),
        );
        let mut fs = spec.build(None, &Obs::default()).expect("format");
        if spec.fs == FsKind::Ufs {
            fs.set_sync_writes(true); // durable before the SMTP ack
        }
        let clock = fs.clock();

        // Deliveries: create + write a ~2 KB message + (for LFS) sync.
        let body = vec![0x6Du8; 2048];
        let t0 = clock.now();
        for m in 0..MESSAGES {
            let f = fs.create(&format!("msg{m:06}")).expect("create");
            fs.write(f, 0, &body).expect("write");
        }
        fs.sync().expect("sync");
        let deliver = clock.now() - t0;

        // Mailbox scan: cold re-read of every message.
        fs.drop_caches();
        let t0 = clock.now();
        let mut buf = vec![0u8; 2048];
        for m in 0..MESSAGES {
            let f = fs.open(&format!("msg{m:06}")).expect("open");
            fs.read(f, 0, &mut buf).expect("read");
        }
        let scan = clock.now() - t0;

        // Expunge: delete the older half.
        let t0 = clock.now();
        for m in 0..MESSAGES / 2 {
            fs.delete(&format!("msg{m:06}")).expect("delete");
        }
        fs.sync().expect("sync");
        let expunge = clock.now() - t0;

        println!(
            "{:<18} {:>12.3} {:>12.3} {:>12.3}",
            spec.label(),
            deliver as f64 / 1e9,
            scan as f64 / 1e9,
            expunge as f64 / 1e9
        );
    }
    println!(
        "\n(UFS delivers synchronously; LFS buffers and logs — the paper's Figure 6 in miniature)"
    );
}
