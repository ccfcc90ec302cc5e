//! The generated ABI manifest: per-opcode descriptors and generation
//! counts, derived from `abi/syscalls.abi` at build time by
//! `browsix-abigen`.
//!
//! This module is how the rest of the system asks questions *about* the ABI
//! (as opposed to using it): `table1_features` prints [`MANIFEST`] so ABI
//! growth is visible release over release.
//!
//! # Example
//!
//! ```
//! use browsix_core::abi;
//!
//! // Every opcode is described, in order, and the manifest counts agree.
//! assert_eq!(abi::SYSCALLS.len() as u32, abi::MANIFEST.syscall_count);
//! assert_eq!(abi::SYSCALLS[0].name, "spawn");
//! ```

/// Compile-time description of one system call, straight from the IDL.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyscallDesc {
    /// Wire/statistics name, e.g. `"llseek"`.
    pub name: &'static str,
    /// Wire opcode; append-only, never reused.
    pub opcode: u8,
    /// Figure 3 class, e.g. `"File IO"`.
    pub class: &'static str,
}

/// Counts describing the generated ABI, printed by `table1_features` and CI
/// so the surface's growth shows up in the paper figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AbiManifest {
    /// Wire codec version (the byte after the frame magic).
    pub wire_version: u8,
    /// Number of system calls.
    pub syscall_count: u32,
    /// Highest assigned opcode (equals `syscall_count` while the space stays
    /// dense; a retired call would leave a permanent gap).
    pub max_opcode: u32,
    /// Number of result tags.
    pub result_count: u32,
}

include!(concat!(env!("OUT_DIR"), "/abi_gen.rs"));
