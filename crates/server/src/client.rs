//! A minimal blocking client for the `s3pg-serve` wire protocol.
//!
//! One request/response exchange per call; responses are decoded into the
//! typed [`Response`] enum so callers (the replica, the tests) never
//! string-match frames.

use crate::protocol::{write_frame, Request, Response};
use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::time::Duration;

/// A connected protocol client.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

/// Client-side failure: transport or frame decoding.
#[derive(Debug)]
pub enum ClientError {
    Io(std::io::Error),
    /// The server closed the connection (EOF before a response line).
    Closed,
    Decode(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "I/O error: {e}"),
            ClientError::Closed => write!(f, "connection closed by server"),
            ClientError::Decode(msg) => write!(f, "bad response frame: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl Client {
    /// Connect to `addr` (e.g. `"127.0.0.1:7878"`).
    pub fn connect(addr: &str) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        Self::from_stream(stream)
    }

    /// Wrap an already-connected stream.
    pub fn from_stream(stream: TcpStream) -> Result<Client, ClientError> {
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        stream.set_write_timeout(Some(Duration::from_secs(30)))?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            writer: stream,
            reader,
        })
    }

    /// Send one request and wait for its response.
    pub fn call(&mut self, request: &Request) -> Result<Response, ClientError> {
        write_frame(&mut self.writer, request.encode())?;
        self.read_response()
    }

    /// Send a raw line (possibly malformed — for protocol testing) and
    /// wait for the response frame.
    pub fn call_raw(&mut self, line: &str) -> Result<Response, ClientError> {
        write_frame(&mut self.writer, line.to_string())?;
        self.read_response()
    }

    /// Read one response frame without sending anything (for connections
    /// the server rejects eagerly, e.g. load shedding).
    pub fn read_response(&mut self) -> Result<Response, ClientError> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(ClientError::Closed);
        }
        Response::decode(&line).map_err(ClientError::Decode)
    }
}
