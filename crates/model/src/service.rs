//! Service definitions.
//!
//! "The service definition sets the boundaries of the application interaction
//! system to be designed. Services are specified at a level of abstraction in
//! which the supporting infrastructure is not considered." (Section 6). A
//! [`ServiceDefinition`] is therefore the paper's first *milestone*: it is
//! middleware-platform-independent and even "paradigm-independent" — the same
//! definition is implemented by all six floor-control solutions in
//! `svckit-floorctl`.

use std::collections::BTreeMap;

use crate::constraint::Constraint;
use crate::error::ModelError;
use crate::hash::FastMap;
use crate::primitive::PrimitiveSpec;
use crate::sap::RoleSpec;

/// A complete service definition: roles, primitives and constraints.
///
/// Build one with [`ServiceDefinition::builder`]; construction validates
/// well-formedness (unique names, constraints referencing declared
/// primitives, key indices within arity).
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceDefinition {
    name: String,
    roles: Vec<RoleSpec>,
    primitives: Vec<PrimitiveSpec>,
    constraints: Vec<Constraint>,
}

impl ServiceDefinition {
    /// Starts building a service definition with the given name.
    pub fn builder(name: impl Into<String>) -> ServiceDefinitionBuilder {
        ServiceDefinitionBuilder {
            name: name.into(),
            roles: Vec::new(),
            primitives: Vec::new(),
            constraints: Vec::new(),
        }
    }

    /// The service name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The declared roles.
    pub fn roles(&self) -> &[RoleSpec] {
        &self.roles
    }

    /// The declared primitives.
    pub fn primitives(&self) -> &[PrimitiveSpec] {
        &self.primitives
    }

    /// The behavioural constraints.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Looks up a primitive schema by name.
    pub fn primitive(&self, name: &str) -> Option<&PrimitiveSpec> {
        self.primitives.iter().find(|p| p.name() == name)
    }

    /// Looks up a role by name.
    pub fn role(&self, name: &str) -> Option<&RoleSpec> {
        self.roles.iter().find(|r| r.name() == name)
    }

    /// Per primitive name, the ascending indices of the constraints that
    /// react to it, read from
    /// [`ConstraintKind::referenced_primitives`](crate::ConstraintKind::referenced_primitives).
    /// A constraint naming one primitive twice is listed once, so stepping
    /// the list steps it once.
    pub fn constraints_by_primitive(&self) -> FastMap<String, Vec<usize>> {
        let mut relevance: FastMap<String, Vec<usize>> = FastMap::default();
        for (ci, constraint) in self.constraints.iter().enumerate() {
            for name in constraint.kind().referenced_primitives() {
                let entry = relevance.entry(name.to_owned()).or_default();
                if entry.last() != Some(&ci) {
                    entry.push(ci);
                }
            }
        }
        relevance
    }

    /// The progress-labelled primitives, in first-mention order: each
    /// constraint's
    /// [`ConstraintKind::progress_primitive`](crate::ConstraintKind::progress_primitive),
    /// deduplicated.
    pub fn progress_primitives(&self) -> Vec<String> {
        let mut progress: Vec<String> = Vec::new();
        for name in self
            .constraints
            .iter()
            .filter_map(|c| c.kind().progress_primitive())
        {
            if !progress.iter().any(|p| p == name) {
                progress.push(name.to_owned());
            }
        }
        progress
    }
}

impl std::fmt::Display for ServiceDefinition {
    /// Renders the definition in the spec-like notation of Figure 5:
    /// roles, primitive signatures, then constraints.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "service {} {{", self.name)?;
        for role in &self.roles {
            writeln!(f, "  role {role};")?;
        }
        for primitive in &self.primitives {
            writeln!(f, "  {primitive};")?;
        }
        for constraint in &self.constraints {
            writeln!(f, "  constraint {constraint};")?;
        }
        write!(f, "}}")
    }
}

/// Builder for [`ServiceDefinition`].
#[derive(Debug, Clone)]
pub struct ServiceDefinitionBuilder {
    name: String,
    roles: Vec<RoleSpec>,
    primitives: Vec<PrimitiveSpec>,
    constraints: Vec<Constraint>,
}

impl ServiceDefinitionBuilder {
    /// Declares a role with an inclusive multiplicity range
    /// (`usize::MAX` for unbounded).
    #[must_use]
    pub fn role(mut self, name: impl Into<String>, min: usize, max: usize) -> Self {
        self.roles.push(RoleSpec::new(name, min, max));
        self
    }

    /// Declares a service primitive.
    #[must_use]
    pub fn primitive(mut self, spec: PrimitiveSpec) -> Self {
        self.primitives.push(spec);
        self
    }

    /// Adds a behavioural constraint.
    #[must_use]
    pub fn constraint(mut self, constraint: Constraint) -> Self {
        self.constraints.push(constraint);
        self
    }

    /// Validates and builds the definition.
    ///
    /// # Errors
    ///
    /// * [`ModelError::NoRoles`] if no role was declared;
    /// * [`ModelError::DuplicateRole`] / [`ModelError::DuplicatePrimitive`]
    ///   on name collisions;
    /// * [`ModelError::UnknownPrimitive`] if a constraint references an
    ///   undeclared primitive;
    /// * [`ModelError::KeyIndexOutOfRange`] if a correlation-key position
    ///   exceeds a referenced primitive's arity.
    pub fn build(self) -> Result<ServiceDefinition, ModelError> {
        if self.roles.is_empty() {
            return Err(ModelError::NoRoles);
        }
        let mut seen_roles = BTreeMap::new();
        for role in &self.roles {
            if seen_roles.insert(role.name().to_owned(), ()).is_some() {
                return Err(ModelError::DuplicateRole {
                    name: role.name().to_owned(),
                });
            }
        }
        let mut arity = BTreeMap::new();
        for prim in &self.primitives {
            if arity.insert(prim.name().to_owned(), prim.arity()).is_some() {
                return Err(ModelError::DuplicatePrimitive {
                    name: prim.name().to_owned(),
                });
            }
        }
        for constraint in &self.constraints {
            for name in constraint.kind().referenced_primitives() {
                match arity.get(name) {
                    None => {
                        return Err(ModelError::UnknownPrimitive {
                            name: name.to_owned(),
                            context: constraint.to_string(),
                        })
                    }
                    Some(&a) => {
                        for &index in constraint.key() {
                            if index >= a {
                                return Err(ModelError::KeyIndexOutOfRange {
                                    primitive: name.to_owned(),
                                    index,
                                    arity: a,
                                });
                            }
                        }
                    }
                }
            }
        }
        Ok(ServiceDefinition {
            name: self.name,
            roles: self.roles,
            primitives: self.primitives,
            constraints: self.constraints,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::ConstraintScope;
    use crate::primitive::Direction;

    fn base() -> ServiceDefinitionBuilder {
        ServiceDefinition::builder("svc")
            .role("user", 1, usize::MAX)
            .primitive(PrimitiveSpec::new("request", Direction::FromUser).param_id("resid"))
            .primitive(PrimitiveSpec::new("granted", Direction::ToUser).param_id("resid"))
    }

    #[test]
    fn builds_well_formed_definition() {
        let svc = base()
            .constraint(
                Constraint::eventually_follows("request", "granted", ConstraintScope::SameSap)
                    .keyed(&[0]),
            )
            .build()
            .unwrap();
        assert_eq!(svc.name(), "svc");
        assert_eq!(svc.primitives().len(), 2);
        assert!(svc.primitive("request").is_some());
        assert!(svc.primitive("nope").is_none());
        assert!(svc.role("user").is_some());
    }

    #[test]
    fn relevance_and_progress_list_each_constraint_once() {
        let svc = base()
            .constraint(Constraint::precedes(
                "request",
                "request",
                ConstraintScope::SameSap,
            ))
            .constraint(Constraint::mutual_exclusion("granted", "request"))
            .constraint(Constraint::after(
                "request",
                "granted",
                ConstraintScope::Global,
            ))
            .build()
            .unwrap();
        let relevance = svc.constraints_by_primitive();
        assert_eq!(relevance["request"], vec![0, 1, 2]);
        assert_eq!(relevance["granted"], vec![1, 2]);
        assert_eq!(svc.progress_primitives(), vec!["request".to_owned()]);
    }

    #[test]
    fn display_renders_spec_notation() {
        let svc = base()
            .constraint(
                Constraint::eventually_follows("request", "granted", ConstraintScope::SameSap)
                    .keyed(&[0]),
            )
            .build()
            .unwrap();
        let text = svc.to_string();
        assert!(text.starts_with("service svc {"), "{text}");
        assert!(text.contains("role user[1..];"), "{text}");
        assert!(text.contains("from-user request(resid: id);"), "{text}");
        assert!(text.contains("constraint local:"), "{text}");
        assert!(text.ends_with('}'), "{text}");
    }

    #[test]
    fn rejects_no_roles() {
        let err = ServiceDefinition::builder("svc").build().unwrap_err();
        assert_eq!(err, ModelError::NoRoles);
    }

    #[test]
    fn rejects_duplicate_primitive() {
        let err = base()
            .primitive(PrimitiveSpec::new("request", Direction::FromUser))
            .build()
            .unwrap_err();
        assert!(matches!(err, ModelError::DuplicatePrimitive { name } if name == "request"));
    }

    #[test]
    fn rejects_duplicate_role() {
        let err = base().role("user", 1, 2).build().unwrap_err();
        assert!(matches!(err, ModelError::DuplicateRole { name } if name == "user"));
    }

    #[test]
    fn rejects_constraint_on_unknown_primitive() {
        let err = base()
            .constraint(Constraint::precedes(
                "granted",
                "free",
                ConstraintScope::SameSap,
            ))
            .build()
            .unwrap_err();
        assert!(matches!(err, ModelError::UnknownPrimitive { name, .. } if name == "free"));
    }

    #[test]
    fn rejects_key_index_beyond_arity() {
        let err = base()
            .constraint(
                Constraint::precedes("request", "granted", ConstraintScope::SameSap).keyed(&[1]),
            )
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            ModelError::KeyIndexOutOfRange {
                index: 1,
                arity: 1,
                ..
            }
        ));
    }
}
