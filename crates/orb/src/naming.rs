//! A minimal naming service — the CORBA NameService stand-in.
//!
//! One node hosts a [`NameServer`] servant under the well-known key
//! [`NAME_SERVICE_KEY`]; other nodes use the [`NamingClient`] helpers to
//! marshal `bind`/`resolve`/`unbind` requests against it. No example
//! uses it: they bind to member ids directly, and name-based binding
//! goes through the replicated group directory (`newtop-dir`). Its one
//! user is the plain-invocation test in `crates/core/tests/nso_edges.rs`.

use bytes::Bytes;

use crate::cdr::{CdrDecode, CdrDecoder, CdrEncode, CdrEncoder, CdrError};
use crate::ior::{ObjectKey, ObjectRef};
use crate::servant::{Servant, ServantError};
use std::collections::BTreeMap;

/// The well-known object key the name server is activated under.
pub const NAME_SERVICE_KEY: &str = "NameService";

/// Operation names understood by the [`NameServer`].
pub mod ops {
    /// `bind(name: string, obj: ObjectRef)` — registers a reference.
    pub const BIND: &str = "bind";
    /// `resolve(name: string) -> Option<ObjectRef>`.
    pub const RESOLVE: &str = "resolve";
    /// `unbind(name: string) -> bool` (whether the name existed).
    pub const UNBIND: &str = "unbind";
    /// `list() -> Vec<String>` — all bound names, sorted.
    pub const LIST: &str = "list";
}

/// The name server servant: a sorted name → reference table.
#[derive(Debug, Default)]
pub struct NameServer {
    bindings: BTreeMap<String, ObjectRef>,
}

impl NameServer {
    /// Creates an empty name server.
    #[must_use]
    pub fn new() -> Self {
        NameServer::default()
    }

    /// Number of bound names.
    #[must_use]
    pub fn len(&self) -> usize {
        self.bindings.len()
    }

    /// True if no names are bound.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.bindings.is_empty()
    }
}

impl Servant for NameServer {
    fn dispatch(&mut self, operation: &str, args: &[u8]) -> Result<Bytes, ServantError> {
        let mut dec = CdrDecoder::new(args);
        let malformed = |_e: CdrError| ServantError::User(Bytes::from_static(b"malformed args"));
        match operation {
            ops::BIND => {
                let name = dec.read_string().map_err(malformed)?;
                let obj = ObjectRef::decode(&mut dec).map_err(malformed)?;
                self.bindings.insert(name, obj);
                Ok(Bytes::new())
            }
            ops::RESOLVE => {
                let name = dec.read_string().map_err(malformed)?;
                let mut enc = CdrEncoder::new();
                enc.write(&self.bindings.get(&name).cloned());
                Ok(enc.finish())
            }
            ops::UNBIND => {
                let name = dec.read_string().map_err(malformed)?;
                let existed = self.bindings.remove(&name).is_some();
                let mut enc = CdrEncoder::new();
                enc.write_bool(existed);
                Ok(enc.finish())
            }
            ops::LIST => {
                let names: Vec<String> = self.bindings.keys().cloned().collect();
                let mut enc = CdrEncoder::new();
                enc.write(&names);
                Ok(enc.finish())
            }
            other => Err(ServantError::BadOperation(other.to_owned())),
        }
    }
}

/// Marshalling helpers for talking to a [`NameServer`].
#[derive(Debug)]
pub struct NamingClient;

impl NamingClient {
    /// The reference of the name server on `node`.
    #[must_use]
    pub fn server_ref(node: newtop_net::site::NodeId) -> ObjectRef {
        ObjectRef::new(node, NAME_SERVICE_KEY)
    }

    /// Marshals the arguments of a `bind` call.
    #[must_use]
    pub fn encode_bind(name: &str, obj: &ObjectRef) -> Bytes {
        let mut enc = CdrEncoder::new();
        enc.write_string(name);
        obj.encode(&mut enc);
        enc.finish()
    }

    /// Marshals the arguments of a `resolve` call.
    #[must_use]
    pub fn encode_resolve(name: &str) -> Bytes {
        let mut enc = CdrEncoder::new();
        enc.write_string(name);
        enc.finish()
    }

    /// Marshals the arguments of an `unbind` call.
    #[must_use]
    pub fn encode_unbind(name: &str) -> Bytes {
        Self::encode_resolve(name)
    }

    /// Unmarshals a `resolve` reply.
    ///
    /// # Errors
    ///
    /// Returns a [`CdrError`] for a malformed reply body.
    pub fn decode_resolve_reply(body: &[u8]) -> Result<Option<ObjectRef>, CdrError> {
        Option::<ObjectRef>::from_cdr(body)
    }

    /// Unmarshals an `unbind` reply.
    ///
    /// # Errors
    ///
    /// Returns a [`CdrError`] for a malformed reply body.
    pub fn decode_unbind_reply(body: &[u8]) -> Result<bool, CdrError> {
        bool::from_cdr(body)
    }

    /// Unmarshals a `list` reply.
    ///
    /// # Errors
    ///
    /// Returns a [`CdrError`] for a malformed reply body.
    pub fn decode_list_reply(body: &[u8]) -> Result<Vec<String>, CdrError> {
        Vec::<String>::from_cdr(body)
    }
}

/// Convenience: the default key under which examples activate application
/// servants found through the name service.
#[must_use]
pub fn well_known_key(name: &str) -> ObjectKey {
    ObjectKey::new(name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use newtop_net::site::NodeId;

    fn obj(n: u32) -> ObjectRef {
        ObjectRef::new(NodeId::from_index(n), "svc")
    }

    #[test]
    fn bind_resolve_unbind_cycle() {
        let mut ns = NameServer::new();
        assert!(ns.is_empty());

        let r = ns
            .dispatch(ops::BIND, &NamingClient::encode_bind("bank", &obj(3)))
            .unwrap();
        assert!(r.is_empty());
        assert_eq!(ns.len(), 1);

        let r = ns
            .dispatch(ops::RESOLVE, &NamingClient::encode_resolve("bank"))
            .unwrap();
        assert_eq!(
            NamingClient::decode_resolve_reply(&r).unwrap(),
            Some(obj(3))
        );

        let r = ns
            .dispatch(ops::UNBIND, &NamingClient::encode_unbind("bank"))
            .unwrap();
        assert!(NamingClient::decode_unbind_reply(&r).unwrap());
        let r = ns
            .dispatch(ops::UNBIND, &NamingClient::encode_unbind("bank"))
            .unwrap();
        assert!(!NamingClient::decode_unbind_reply(&r).unwrap());
    }

    #[test]
    fn resolve_missing_is_none() {
        let mut ns = NameServer::new();
        let r = ns
            .dispatch(ops::RESOLVE, &NamingClient::encode_resolve("ghost"))
            .unwrap();
        assert_eq!(NamingClient::decode_resolve_reply(&r).unwrap(), None);
    }

    #[test]
    fn rebinding_replaces() {
        let mut ns = NameServer::new();
        ns.dispatch(ops::BIND, &NamingClient::encode_bind("a", &obj(1)))
            .unwrap();
        ns.dispatch(ops::BIND, &NamingClient::encode_bind("a", &obj(2)))
            .unwrap();
        let r = ns
            .dispatch(ops::RESOLVE, &NamingClient::encode_resolve("a"))
            .unwrap();
        assert_eq!(
            NamingClient::decode_resolve_reply(&r).unwrap(),
            Some(obj(2))
        );
    }

    #[test]
    fn list_is_sorted() {
        let mut ns = NameServer::new();
        for name in ["zeta", "alpha", "mid"] {
            ns.dispatch(ops::BIND, &NamingClient::encode_bind(name, &obj(1)))
                .unwrap();
        }
        let r = ns.dispatch(ops::LIST, &[]).unwrap();
        assert_eq!(
            NamingClient::decode_list_reply(&r).unwrap(),
            vec!["alpha".to_owned(), "mid".to_owned(), "zeta".to_owned()]
        );
    }

    #[test]
    fn malformed_args_are_user_exceptions() {
        let mut ns = NameServer::new();
        let err = ns.dispatch(ops::BIND, &[1, 2]).unwrap_err();
        assert!(matches!(err, ServantError::User(_)));
    }

    #[test]
    fn unknown_op_is_bad_operation() {
        let mut ns = NameServer::new();
        assert!(matches!(
            ns.dispatch("destroy", &[]).unwrap_err(),
            ServantError::BadOperation(_)
        ));
    }
}
