//! Regenerates Table 1: the feature comparison of execution environments and
//! language runtimes, and verifies the BROWSIX row by exercising each feature.
//! Also reports what the verification run cost the kernel: system calls by
//! Figure 3 class and the submission batch-size histogram.

use browsix_bench::{environment_feature_table, features::verify_browsix_row_with_shard_stats, print_table};

fn main() {
    // The ABI generation manifest: the same counts browsix-abigen derives
    // from abi/syscalls.abi at build time, so the syscall surface's growth
    // is visible run over run.
    let m = browsix_core::abi::MANIFEST;
    println!(
        "ABI manifest (generated from abi/syscalls.abi): wire v{} · {} syscalls (max opcode {}) · {} result tags\n",
        m.wire_version, m.syscall_count, m.max_opcode, m.result_count
    );

    let rows: Vec<Vec<String>> = environment_feature_table().iter().map(|row| row.cells()).collect();
    print_table(
        "Table 1 — feature comparison",
        &[
            "Environment / runtime",
            "Filesystem",
            "Socket clients",
            "Socket servers",
            "Processes",
            "Pipes",
            "Signals",
        ],
        &rows,
    );
    let (verified, stats, per_shard) = verify_browsix_row_with_shard_stats();
    println!(
        "\nVerified against running code (a Browsix process exercised each feature): {}",
        verified.join(", ")
    );

    let class_rows: Vec<Vec<String>> = stats
        .syscalls_by_class
        .iter()
        .map(|(class, count)| vec![class.clone(), count.to_string()])
        .collect();
    print_table(
        "Verification run — system calls by class",
        &["Class", "Calls"],
        &class_rows,
    );

    let histogram_rows: Vec<Vec<String>> = stats
        .batch_size_histogram
        .iter()
        .map(|(size, count)| vec![size.to_string(), count.to_string()])
        .collect();
    print_table(
        "Verification run — submission batch sizes",
        &["Entries/batch", "Batches"],
        &histogram_rows,
    );
    println!(
        "{} syscalls in {} batches (mean {:.2} entries/batch, max {})",
        stats.total_syscalls,
        stats.batches,
        stats.mean_batch_size(),
        stats.max_batch_size()
    );

    // VFS cache effectiveness during the run: the dentry cache in front of
    // the mount table, httpfs page caches and overlay copy-ups.
    print_table(
        "Verification run — VFS caches",
        &["Counter", "Value"],
        &[
            vec!["dentry-cache hits".to_owned(), stats.dentry_cache_hits.to_string()],
            vec!["dentry-cache misses".to_owned(), stats.dentry_cache_misses.to_string()],
            vec!["page-cache hits".to_owned(), stats.page_cache_hits.to_string()],
            vec!["page-cache misses".to_owned(), stats.page_cache_misses.to_string()],
            vec!["overlay copy-ups".to_owned(), stats.overlay_copy_ups.to_string()],
        ],
    );

    // Wait-queue behaviour during the run: blocked calls parked, targeted
    // wakeups that completed them, wakeups that found nothing to do, EAGAIN
    // short-circuits taken by O_NONBLOCK descriptors, and polls that ended
    // on their timer.
    print_table(
        "Verification run — wait queues & readiness",
        &["Counter", "Value"],
        &[
            vec!["waiters parked".to_owned(), stats.waiters_parked.to_string()],
            vec!["wakeups (completed)".to_owned(), stats.wakeups.to_string()],
            vec!["spurious wakeups".to_owned(), stats.spurious_wakeups.to_string()],
            vec!["EAGAIN returns".to_owned(), stats.eagain_returns.to_string()],
            vec!["poll timeouts".to_owned(), stats.poll_timeouts.to_string()],
        ],
    );

    // Virtual-memory activity during the run: pages shared by reference
    // instead of copied (fork, file-backed mmap), COW faults serviced and
    // the pages they physically copied, and named shm objects created.
    print_table(
        "Verification run — virtual memory",
        &["Counter", "Value"],
        &[
            vec!["COW faults".to_owned(), stats.cow_faults.to_string()],
            vec!["pages shared".to_owned(), stats.pages_shared.to_string()],
            vec!["pages copied".to_owned(), stats.pages_copied.to_string()],
            vec!["shm objects".to_owned(), stats.shm_objects.to_string()],
        ],
    );

    // Syscall-ring and zero-copy activity during the run: submission-queue
    // entries the kernel drained, doorbell events that triggered a drain,
    // completions posted back through the ring, and bytes/pages the sendfile
    // and splice paths moved without guest-memory copies.
    print_table(
        "Verification run — syscall rings & zero-copy",
        &["Counter", "Value"],
        &[
            vec!["SQEs drained".to_owned(), stats.sq_polled.to_string()],
            vec!["doorbells".to_owned(), stats.doorbells.to_string()],
            vec!["CQEs posted".to_owned(), stats.cq_posted.to_string()],
            vec!["sendfile/splice bytes".to_owned(), stats.sendfile_bytes.to_string()],
            vec!["zero-copy pages".to_owned(), stats.zero_copy_pages.to_string()],
        ],
    );

    // Signal traffic during the run: signals accepted for live targets,
    // signals that actually acted (handler or default disposition), and
    // blocked system calls a handler interrupted with EINTR.
    print_table(
        "Verification run — signals",
        &["Counter", "Value"],
        &[
            vec!["signals sent".to_owned(), stats.signals_sent.to_string()],
            vec!["signals delivered".to_owned(), stats.signals_delivered.to_string()],
            vec!["EINTR wakeups".to_owned(), stats.eintr_wakeups.to_string()],
        ],
    );

    // Sharded-kernel traffic during the run, fleet-wide (every counter above
    // is already the merge of the per-shard snapshots) and broken down by
    // shard.  With BROWSIX_SHARDS unset the run uses one shard and every
    // cross-shard counter is zero.
    print_table(
        "Verification run — sharding (fleet-wide)",
        &["Counter", "Value"],
        &[
            vec!["shards".to_owned(), per_shard.len().to_string()],
            vec!["shard messages sent".to_owned(), stats.shard_msgs_sent.to_string()],
            vec!["remote I/O steals".to_owned(), stats.steals.to_string()],
            vec!["cross-shard wakeups".to_owned(), stats.cross_shard_wakeups.to_string()],
        ],
    );
    let shard_rows: Vec<Vec<String>> = per_shard
        .iter()
        .enumerate()
        .map(|(shard, s)| {
            vec![
                shard.to_string(),
                s.total_syscalls.to_string(),
                s.shard_msgs_sent.to_string(),
                s.steals.to_string(),
                s.cross_shard_wakeups.to_string(),
            ]
        })
        .collect();
    print_table(
        "Verification run — per-shard breakdown",
        &["Shard", "Syscalls", "Msgs sent", "Steals", "X-shard wakeups"],
        &shard_rows,
    );
}
