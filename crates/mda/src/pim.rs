//! Platform-independent service designs.
//!
//! "The platform-independent service design consists of the
//! platform-independent service logic, which is structured in terms of
//! service components, and an abstract-platform definition." (Section 6.)

use std::fmt;

use svckit_model::{InteractionPattern, ServiceDefinition};

use crate::error::MdaError;
use crate::platform::AbstractPlatform;

/// A service component of the platform-independent service logic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogicComponent {
    name: String,
    implements_role: Option<String>,
    replicated: bool,
}

impl LogicComponent {
    /// Creates an internal (coordination) component that implements no
    /// service role.
    pub fn internal(name: impl Into<String>) -> Self {
        LogicComponent {
            name: name.into(),
            implements_role: None,
            replicated: false,
        }
    }

    /// Creates a component implementing a service role, one instance per
    /// access point.
    pub fn for_role(name: impl Into<String>, role: impl Into<String>) -> Self {
        LogicComponent {
            name: name.into(),
            implements_role: Some(role.into()),
            replicated: true,
        }
    }

    /// The component name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The service role this component implements, if any.
    pub fn implements_role(&self) -> Option<&str> {
        self.implements_role.as_deref()
    }
}

/// An interaction between two service components, expressed as an abstract
/// interaction concept.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Connector {
    name: String,
    concept: InteractionPattern,
    from: String,
    to: String,
}

impl Connector {
    /// Creates a connector carrying `concept` interactions from component
    /// `from` to component `to` (both by name; self-connections model
    /// ring/peer interaction between instances of a replicated component).
    pub fn new(
        name: impl Into<String>,
        concept: InteractionPattern,
        from: impl Into<String>,
        to: impl Into<String>,
    ) -> Self {
        Connector {
            name: name.into(),
            concept,
            from: from.into(),
            to: to.into(),
        }
    }

    /// The connector name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The abstract interaction concept the connector relies on.
    pub fn concept(&self) -> InteractionPattern {
        self.concept
    }

    /// The initiating component.
    pub fn from(&self) -> &str {
        &self.from
    }

    /// The responding component.
    pub fn to(&self) -> &str {
        &self.to
    }
}

impl fmt::Display for Connector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} --{}--> {}",
            self.name, self.from, self.concept, self.to
        )
    }
}

/// The second milestone of Figure 11: service logic plus abstract-platform
/// definition, validated for internal consistency.
#[derive(Debug, Clone)]
pub struct PlatformIndependentDesign {
    name: String,
    service: ServiceDefinition,
    components: Vec<LogicComponent>,
    connectors: Vec<Connector>,
    abstract_platform: AbstractPlatform,
}

impl PlatformIndependentDesign {
    /// Validates and creates a platform-independent service design.
    ///
    /// # Errors
    ///
    /// * [`MdaError::InvalidDesign`] when component names collide, a
    ///   connector endpoint is undeclared, a referenced role does not exist
    ///   in the service, or a mandatory service role has no implementing
    ///   component;
    /// * [`MdaError::ConceptNotInAbstractPlatform`] when a connector uses a
    ///   concept outside the abstract-platform definition — the defining
    ///   property of platform-independent service logic.
    pub fn new(
        name: impl Into<String>,
        service: ServiceDefinition,
        components: Vec<LogicComponent>,
        connectors: Vec<Connector>,
        abstract_platform: AbstractPlatform,
    ) -> Result<Self, MdaError> {
        let mut names = std::collections::BTreeSet::new();
        for component in &components {
            if !names.insert(component.name().to_owned()) {
                return Err(MdaError::InvalidDesign {
                    detail: format!("component `{}` declared twice", component.name()),
                });
            }
            if let Some(role) = component.implements_role() {
                if service.role(role).is_none() {
                    return Err(MdaError::InvalidDesign {
                        detail: format!(
                            "component `{}` implements unknown role `{role}`",
                            component.name()
                        ),
                    });
                }
            }
        }
        for role in service.roles() {
            if role.min() > 0
                && !components
                    .iter()
                    .any(|c| c.implements_role() == Some(role.name()))
            {
                return Err(MdaError::InvalidDesign {
                    detail: format!(
                        "service role `{}` has no implementing component",
                        role.name()
                    ),
                });
            }
        }
        for connector in &connectors {
            for end in [connector.from(), connector.to()] {
                if !names.contains(end) {
                    return Err(MdaError::InvalidDesign {
                        detail: format!(
                            "connector `{}` references unknown component `{end}`",
                            connector.name()
                        ),
                    });
                }
            }
            if !abstract_platform.offers(connector.concept()) {
                return Err(MdaError::ConceptNotInAbstractPlatform {
                    connector: connector.name().to_owned(),
                    concept: connector.concept().to_string(),
                });
            }
        }
        Ok(PlatformIndependentDesign {
            name: name.into(),
            service,
            components,
            connectors,
            abstract_platform,
        })
    }

    /// The design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The service this design implements (milestone 1).
    pub fn service(&self) -> &ServiceDefinition {
        &self.service
    }

    /// The service components.
    pub fn components(&self) -> &[LogicComponent] {
        &self.components
    }

    /// The connectors.
    pub fn connectors(&self) -> &[Connector] {
        &self.connectors
    }

    /// The abstract-platform definition.
    pub fn abstract_platform(&self) -> &AbstractPlatform {
        &self.abstract_platform
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use svckit_floorctl::floor_control_service;

    fn valid_parts() -> (Vec<LogicComponent>, Vec<Connector>, AbstractPlatform) {
        (
            vec![
                LogicComponent::internal("coordinator"),
                LogicComponent::for_role("subscriber-agent", "subscriber"),
            ],
            vec![
                Connector::new(
                    "acquire",
                    InteractionPattern::RequestResponse,
                    "subscriber-agent",
                    "coordinator",
                ),
                Connector::new(
                    "grant",
                    InteractionPattern::Oneway,
                    "coordinator",
                    "subscriber-agent",
                ),
            ],
            AbstractPlatform::new(
                "ap-floor",
                [
                    InteractionPattern::RequestResponse,
                    InteractionPattern::Oneway,
                ],
            ),
        )
    }

    #[test]
    fn valid_design_builds() {
        let (components, connectors, ap) = valid_parts();
        let pim = PlatformIndependentDesign::new(
            "floor-pim",
            floor_control_service(),
            components,
            connectors,
            ap,
        )
        .unwrap();
        assert_eq!(pim.components().len(), 2);
        assert_eq!(pim.connectors().len(), 2);
    }

    #[test]
    fn connector_outside_abstract_platform_rejected() {
        let (components, mut connectors, _) = valid_parts();
        connectors.push(Connector::new(
            "news",
            InteractionPattern::PublishSubscribe,
            "coordinator",
            "subscriber-agent",
        ));
        let ap = AbstractPlatform::new(
            "ap-floor",
            [
                InteractionPattern::RequestResponse,
                InteractionPattern::Oneway,
            ],
        );
        let err = PlatformIndependentDesign::new(
            "floor-pim",
            floor_control_service(),
            components,
            connectors,
            ap,
        )
        .unwrap_err();
        assert!(matches!(err, MdaError::ConceptNotInAbstractPlatform { .. }));
    }

    #[test]
    fn unknown_connector_endpoint_rejected() {
        let (components, mut connectors, ap) = valid_parts();
        connectors.push(Connector::new(
            "bad",
            InteractionPattern::Oneway,
            "ghost",
            "coordinator",
        ));
        let err = PlatformIndependentDesign::new(
            "floor-pim",
            floor_control_service(),
            components,
            connectors,
            ap,
        )
        .unwrap_err();
        assert!(matches!(err, MdaError::InvalidDesign { .. }));
    }

    #[test]
    fn uncovered_mandatory_role_rejected() {
        let (_, _, ap) = valid_parts();
        let err = PlatformIndependentDesign::new(
            "floor-pim",
            floor_control_service(),
            vec![LogicComponent::internal("coordinator")],
            vec![],
            ap,
        )
        .unwrap_err();
        assert!(err.to_string().contains("subscriber"), "{err}");
    }

    #[test]
    fn duplicate_component_rejected() {
        let (mut components, connectors, ap) = valid_parts();
        components.push(LogicComponent::internal("coordinator"));
        let err = PlatformIndependentDesign::new(
            "floor-pim",
            floor_control_service(),
            components,
            connectors,
            ap,
        )
        .unwrap_err();
        assert!(err.to_string().contains("twice"), "{err}");
    }
}
