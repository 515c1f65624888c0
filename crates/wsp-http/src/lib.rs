//! # wsp-http
//!
//! HTTP substrate for WSPeer's standard ("HTTP/UDDI") implementation:
//!
//! * a byte-exact HTTP/1.1 [`codec`];
//! * the container-less lightweight host — a [`Router`] of dynamically
//!   deployed services behind either a real [`tcp::TcpServer`] or a
//!   simulated [`sim::HttpSimServer`] (the same router serves both);
//! * [`httpg`], the simulated Globus-style authenticated transport;
//! * [`container`], the cost model of the *traditional* container used
//!   as the baseline in the deployment-latency experiment (E5).
//!
//! The paper's host launches its HTTP server only when the first service
//! is deployed, lists services at `/`, and hands every request to the
//! application before the messaging engine sees it; `Router` +
//! `TcpServer` implement exactly that contract.

pub mod codec;
pub mod conn;
pub mod container;
pub mod drain;
pub mod httpg;
pub mod message;
pub mod reactor;
pub mod router;
pub mod sim;
pub mod tcp;
pub mod uri;

pub use codec::{
    encode_request, encode_response, frame_len, parse_request, parse_response, HeadScan, HttpError,
};
pub use conn::{ConnEffect, ConnEvent, ConnMachine, ConnState, Phase, TimerKind};
pub use container::{ContainerModel, ContainerSimServer, DEPLOY_TAG};
pub use drain::{DrainEffect, DrainEvent, DrainMachine, DrainState, Lifecycle};
pub use httpg::{guard_router, guarded, HttpgCredential, HttpgError};
pub use message::{Headers, Method, Request, Response};
pub use reactor::{
    Admit, ConnProtocol, Io, Job, JobResult, Listener, Reactor, ReactorConfig, ServerHooks,
};
pub use router::{HttpHandler, Interceptor, Router};
pub use sim::{
    HttpSimServer, ResilientSimClient, SimCallOutcome, SimHttpClient, CORRELATION_HEADER,
};
pub use tcp::{
    http_call, http_call_uri, http_call_with_timeout, ConnectionPool, ServerConfig, TcpServer,
    DEFAULT_CLIENT_TIMEOUT,
};
pub use uri::{HttpUri, UriError};
