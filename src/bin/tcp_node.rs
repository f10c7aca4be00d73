//! Worker process for multi-process deployments: one node of the TCP
//! fabric, launched by [`borealis_workloads::run_tcp_parent`].
//!
//! Argv carries `proc=<i>`, the port map as `addrs=` and the serialized
//! [`TcpChainSpec`] (`key=value` tokens). See
//! `borealis_workloads::tcp` for the handshake protocol.
//!
//! [`TcpChainSpec`]: borealis_workloads::TcpChainSpec

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match borealis_workloads::run_tcp_child_args(args.iter().map(|s| s.as_str())) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("tcp_node: {e}");
            ExitCode::FAILURE
        }
    }
}
