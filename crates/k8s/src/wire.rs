//! The JSON door: the only place the control plane encodes or decodes an
//! object. [`ApiObject::new`] decodes a JSON spec once, at construction;
//! [`ApiServer::mutate`] hands its closure the stored object's wire form
//! ([`WireObject`]) and decodes the edited result back into one new
//! snapshot. Everything else reads and writes typed values.
//!
//! A JSON value that does not fit its kind's schema is a programming
//! error in this closed system: the door panics, naming the kind and the
//! object.

use std::rc::Rc;

use serde::de::DeserializeOwned;
use serde::Serialize;
use serde_json::Value;

use crate::api::{ApiError, ApiObject, ApiServer, ObjectMeta};
use crate::objects::{Kind, Spec, Status};

/// An object as JSON: typed metadata, and the spec and status in their
/// wire encoding (`null` for no status).
#[derive(Debug)]
pub struct WireObject {
    /// Metadata.
    pub meta: ObjectMeta,
    /// Desired state.
    pub spec: Value,
    /// Observed state.
    pub status: Value,
}

fn decode<T: DeserializeOwned>(json: Value) -> Result<T, serde_json::Error> {
    serde_json::from_value(json)
}

fn encode<T: Serialize>(value: &T) -> Value {
    serde_json::to_value(value).expect("typed API values serialize")
}

impl Spec {
    fn decode(kind: Kind, json: Value) -> Result<Spec, serde_json::Error> {
        Ok(match kind {
            Kind::Job => Spec::Job(decode(json)?),
            Kind::Pod => Spec::Pod(decode(json)?),
            Kind::Node => Spec::Node(decode(json)?),
            Kind::Vni => Spec::Vni(decode(json)?),
            Kind::VniClaim => Spec::VniClaim(decode(json)?),
            Kind::Service => Spec::Service(decode(json)?),
        })
    }

    fn encode(&self) -> Value {
        match self {
            Spec::Job(spec) => encode(spec),
            Spec::Pod(spec) => encode(spec),
            Spec::Node(spec) => encode(spec),
            Spec::Vni(spec) => encode(spec),
            Spec::VniClaim(spec) => encode(spec),
            Spec::Service(spec) => encode(spec),
        }
    }
}

impl Status {
    fn decode(kind: Kind, json: Value) -> Result<Status, serde_json::Error> {
        Ok(match kind {
            _ if json.is_null() => Status::None,
            Kind::Pod => Status::Pod(decode(json)?),
            Kind::Job => Status::Job(decode(json)?),
            Kind::Node => Status::Node(decode(json)?),
            Kind::Service => Status::Service(decode(json)?),
            other => return Err(serde_json::Error::custom(format!("a {other} has no status"))),
        })
    }

    fn encode(&self) -> Value {
        match self {
            Status::None => Value::Null,
            Status::Pod(status) => encode(status),
            Status::Job(status) => encode(status),
            Status::Node(status) => encode(status),
            Status::Service(status) => encode(status),
        }
    }
}

/// `decoded`, or a panic naming the kind, the part and the object.
fn fit<T>(decoded: Result<T, serde_json::Error>, kind: Kind, part: &str, obj: &str) -> T {
    decoded.unwrap_or_else(|e| panic!("bad {kind} {part} for {obj}: {e}"))
}

impl ApiObject {
    /// An object of `kind` from its JSON spec, decoded here, once.
    /// Panics if `spec` does not fit the kind's schema.
    pub fn new(kind: Kind, namespace: &str, name: &str, spec: Value) -> Self {
        let obj = if namespace.is_empty() { name.into() } else { format!("{namespace}/{name}") };
        let spec = fit(Spec::decode(kind, spec), kind, "spec", &obj);
        ApiObject::from_spec(namespace, name, spec)
    }

    /// This object's wire form.
    fn to_wire(&self) -> WireObject {
        WireObject {
            meta: self.meta.clone(),
            spec: self.spec.encode(),
            status: self.status.encode(),
        }
    }
}

impl ApiServer {
    /// Edit an object as JSON: the closure gets its wire form, and the
    /// result is decoded back. Request, resource version, event and
    /// reaping are those of [`ApiServer::edit`]; an unchanged spec keeps
    /// the stored handle. Panics if the edited spec or status no longer
    /// fits the kind's schema.
    pub fn mutate(
        &mut self,
        kind: Kind,
        namespace: &str,
        name: &str,
        f: impl FnOnce(&mut WireObject),
    ) -> Result<Rc<ApiObject>, ApiError> {
        self.requests += 1;
        let id = self.id(kind, namespace, name).ok_or(ApiError::NotFound)?;
        self.write(id, |o| {
            let mut wire = o.to_wire();
            f(&mut wire);
            let (kind, full_name) = (o.kind(), o.full_name());
            let spec = fit(Spec::decode(kind, wire.spec), kind, "spec", &full_name);
            let status = fit(Status::decode(kind, wire.status), kind, "status", &full_name);
            let spec = if spec == *o.spec { Rc::clone(&o.spec) } else { Rc::new(spec) };
            ApiObject { meta: wire.meta, spec, status }
        })
    }
}
